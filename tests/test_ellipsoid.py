import math
from types import SimpleNamespace

import numpy as np
import pytest

from coopmec.ellipsoid import (
    DEEP_CUT_MAX,
    FEASIBILITY_CUT,
    OBJECTIVE_CUT,
    CutOracleResult,
    OracleError,
    ellipsoid_run,
)


def quadratic_oracle(x):
    # maximize -x^2 on [-10, 10]
    return CutOracleResult(OBJECTIVE_CUT, np.array([-2.0 * x[0]]), -x[0] ** 2)


def test_quadratic_1d():
    res = ellipsoid_run(quadratic_oracle, np.array([7.0]), 10.0, max_iter=100)
    assert abs(res.best_point[0]) < 1e-4
    assert res.best_value == pytest.approx(0.0, abs=1e-8)


def test_nonsmooth_2d():
    # maximize -|x - 2| - |y + 1|, subgradients only
    def oracle(x):
        g = np.array([-np.sign(x[0] - 2.0), -np.sign(x[1] + 1.0)])
        return CutOracleResult(OBJECTIVE_CUT, g, -abs(x[0] - 2.0) - abs(x[1] + 1.0))

    res = ellipsoid_run(oracle, np.zeros(2), 10.0, max_iter=3000)
    assert abs(res.best_point[0] - 2.0) < 1e-5
    assert abs(res.best_point[1] + 1.0) < 1e-5


def test_constrained_piecewise_linear():
    # maximize min(x, 1 - x) with a feasibility cut keeping x >= 0;
    # analytic optimum sits at x = 0.5 with value 0.5
    def oracle(x):
        if x[0] < 0.0 or x[1] < 0.0:
            k = 0 if x[0] < 0.0 else 1
            e = np.zeros(2)
            e[k] = -1.0
            return CutOracleResult(FEASIBILITY_CUT, e)
        v = min(x[0], 1.0 - x[0])
        g = np.array([1.0, 0.0]) if x[0] < 1.0 - x[0] else np.array([-1.0, 0.0])
        return CutOracleResult(OBJECTIVE_CUT, g, v)

    res = ellipsoid_run(oracle, np.array([0.9, 0.9]), 3.0, max_iter=4000)
    assert res.best_value == pytest.approx(0.5, abs=1e-5)
    assert res.best_point[0] == pytest.approx(0.5, abs=1e-4)


def test_volume_contraction():
    # det(shape) shrinks by at least exp(-1/(2n)) per iteration
    n = 3

    def oracle(x):
        return CutOracleResult(OBJECTIVE_CUT, -2.0 * x, -float(x @ x))

    iters = 120
    res = ellipsoid_run(oracle, np.full(n, 5.0), 10.0, max_iter=iters)
    assert res.iterations == iters
    det0 = (10.0**2) ** n
    assert res.shape_det <= det0 * math.exp(-iters / (2.0 * n))


def test_monotone_best_value():
    vals = []

    def oracle(x):
        v = -float((x - 1.0) @ (x - 1.0))
        vals.append(v)
        return CutOracleResult(OBJECTIVE_CUT, -2.0 * (x - 1.0), v)

    res = ellipsoid_run(oracle, np.zeros(2), 5.0, max_iter=500)
    best_seq = np.maximum.accumulate(vals)
    assert res.best_value == pytest.approx(best_seq[-1])
    assert np.all(np.diff(best_seq) >= 0.0)


def test_feasibility_cut_keeps_feasible_set(rng):
    # after cutting at an infeasible center, every feasible sample stays
    # inside the updated ellipsoid
    n = 2
    center = np.array([-1.0, 0.5])
    A = np.diag([4.0, 4.0])

    g = np.array([-1.0, 0.0])  # violated constraint gradient of -x <= 0
    denom = math.sqrt(g @ A @ g)
    gt = g / denom
    Ag = A @ gt
    center_new = center - Ag / (n + 1)
    A_new = (n**2 / (n**2 - 1.0)) * (A - (2.0 / (n + 1)) * np.outer(Ag, Ag))

    inv_new = np.linalg.inv(A_new)
    for _ in range(500):
        z = rng.uniform(-2.0, 2.0, size=2)
        if z[0] < 0.0:
            continue  # infeasible points may be cut away
        inside_old = (z - center) @ np.linalg.inv(A) @ (z - center) <= 1.0
        if inside_old:
            assert (z - center_new) @ inv_new @ (z - center_new) <= 1.0 + 1e-9


def test_per_coordinate_radius():
    def oracle(x):
        return CutOracleResult(
            OBJECTIVE_CUT, np.array([-2 * x[0], -2e6 * x[1]]),
            -(x[0] ** 2) - 1e6 * x[1] ** 2,
        )

    res = ellipsoid_run(oracle, np.array([5.0, 5e-3]), np.array([10.0, 1e-2]),
                        max_iter=2000)
    assert abs(res.best_point[0]) < 1e-4
    assert abs(res.best_point[1]) < 1e-7


def test_zero_supergradient_terminates():
    def oracle(x):
        return CutOracleResult(OBJECTIVE_CUT, np.zeros(2), 1.0)

    res = ellipsoid_run(oracle, np.zeros(2), 1.0)
    assert res.converged
    assert res.iterations == 1


def test_degenerate_feasibility_cut_raises():
    def oracle(x):
        return CutOracleResult(FEASIBILITY_CUT, np.zeros(2))

    with pytest.raises(OracleError):
        ellipsoid_run(oracle, np.zeros(2), 1.0)


def _cuts_then(bad, kind, good_cuts):
    """An oracle whose first `good_cuts` cuts are valid and whose next cut
    vector is `bad`, of the given kind."""
    calls = []

    def oracle(x):
        calls.append(x.copy())
        if len(calls) <= good_cuts:
            return CutOracleResult(OBJECTIVE_CUT, -2.0 * (x - 0.3), -float((x - 0.3) @ (x - 0.3)))
        return CutOracleResult(kind, bad, value=0.0, violation=1.0)
    return oracle, calls


@pytest.mark.parametrize("good_cuts", [0, 7])
@pytest.mark.parametrize("kind", [OBJECTIVE_CUT, FEASIBILITY_CUT])
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 2])
def test_non_finite_cut_vector_raises(good_cuts, kind, entry, where):
    # whether the shape matrix is still diagonal (no cut yet) or not, and
    # whatever the other entries, a NaN or infinite entry is refused
    bad = np.array([0.5, -1.0, 2.0])
    bad[where] = entry
    oracle, calls = _cuts_then(bad, kind, good_cuts)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(OracleError):
            ellipsoid_run(oracle, np.zeros(3), 1.0, max_iter=20)
    assert len(calls) == good_cuts + 1


@pytest.mark.parametrize("kind", [OBJECTIVE_CUT, FEASIBILITY_CUT])
@pytest.mark.parametrize("bad", [np.ones(2), np.ones(4), np.ones((3, 1)), np.ones((1, 3)),
                                 np.array(1.0)])
def test_cut_vector_of_the_wrong_shape_raises(kind, bad):
    oracle, calls = _cuts_then(bad, kind, 3)
    with pytest.raises(OracleError):
        ellipsoid_run(oracle, np.zeros(3), 1.0, max_iter=20)
    assert len(calls) == 4


def test_bad_radius_rejected():
    with pytest.raises(ValueError):
        ellipsoid_run(quadratic_oracle, np.zeros(1), 0.0)


def textbook_run(oracle, center, radius, max_iter, ellipsoids=None):
    """The deep-cut update as first written, with no convergence test:
    both quadratic forms g'Ag and cut'A cut, A @ gt, np.outer, and a
    re-symmetrization of A on every step. The depth is (best - f(x)) /
    sqrt(g'Ag) at an objective cut and violation / sqrt(g'Ag) at a
    feasibility cut, capped at DEEP_CUT_MAX; at depth 0 the step is the
    central-cut update as first written. Appends every ellipsoid
    (center, A) to `ellipsoids`, if given."""
    n = center.size
    A = np.diag(radius**2)
    best_point, best_value, gap_bound, alphas = None, -np.inf, np.inf, []
    for _ in range(max_iter):
        if ellipsoids is not None:
            ellipsoids.append((center, A))
        res = oracle(center)
        g = res.vector
        if res.kind == OBJECTIVE_CUT:
            if res.value > best_value:
                best_point, best_value = center.copy(), res.value
            gap_bound = np.sqrt(max(float(g @ A @ g), 0.0))
            cut, depth = -g, best_value - res.value
        else:
            cut, depth = g, res.violation
        root = np.sqrt(float(cut @ A @ cut))
        alpha = min(depth / root, DEEP_CUT_MAX) if depth > 0.0 else 0.0
        alphas.append(alpha)
        Ag = A @ (cut / root)
        if alpha == 0.0:
            center = center - Ag / (n + 1.0)
            A = (n**2 / (n**2 - 1.0)) * (A - (2.0 / (n + 1.0)) * np.outer(Ag, Ag))
        else:
            # c - (1 + n alpha)/(n + 1) A gt and
            # n^2/(n^2 - 1) (1 - alpha^2) (A - 2(1 + n alpha)/((n + 1)(1 + alpha)) A gt gt' A)
            center = center - (1.0 + n * alpha) * Ag / (n + 1.0)
            A = (n**2 / (n**2 - 1.0)) * (1.0 - alpha * alpha) * (
                A - (2.0 / (n + 1.0)) * (1.0 + n * alpha) / (1.0 + alpha)
                * np.outer(Ag, Ag))
        A = 0.5 * (A + A.T)
    if ellipsoids is not None:
        ellipsoids.append((center, A))
    return SimpleNamespace(
        best_point=best_point, best_value=best_value, gap_bound=gap_bound,
        center=center, shape_det=float(np.linalg.det(A)), alphas=alphas)


#: maximize a nonsmooth concave function over {x >= 0, sum(x) <= 3}, whose
#: optimum sits on that boundary, so both cut kinds keep firing
BOUNDARY_TARGET = np.array([1.0, -0.5, 2.0, 0.3, -1.0])
BOUNDARY_WEIGHTS = np.array([1.0, 2.0, 0.5, 3.0, 1.5])


def boundary_oracle(queried, kinds, deep=True):
    """The cut oracle of that problem. With deep=False it reports a
    constant value and no violations, so every cut is central."""
    def oracle(x):
        queried.append(x.copy())
        neg = np.flatnonzero(x < 0.0)
        if neg.size:
            e = np.zeros(5)
            e[neg[0]] = -1.0
            res = CutOracleResult(FEASIBILITY_CUT, e,
                                  violation=-x[neg[0]] if deep else 0.0)
        elif x.sum() > 3.0:
            res = CutOracleResult(FEASIBILITY_CUT, np.ones(5),
                                  violation=x.sum() - 3.0 if deep else 0.0)
        else:
            dx = x - BOUNDARY_TARGET
            value = float(-BOUNDARY_WEIGHTS @ np.abs(dx) - dx @ dx) if deep else 0.0
            res = CutOracleResult(OBJECTIVE_CUT,
                                  -BOUNDARY_WEIGHTS * np.sign(dx) - 2.0 * dx, value)
        kinds.append(res.kind)
        return res
    return oracle


def assert_matches_textbook(deep):
    # the start violates sum(x) <= 3 by 3, so the first cut is capped
    iters = 400
    center0, radius = np.full(5, 1.2), np.array([3.0, 1.0, 4.0, 2.0, 1.5])
    ref_queried, kinds = [], []
    ref = textbook_run(boundary_oracle(ref_queried, kinds, deep), center0, radius, iters)
    queried = []
    res = ellipsoid_run(boundary_oracle(queried, [], deep), center0, radius,
                        max_iter=iters)

    assert kinds.count(OBJECTIVE_CUT) > 100 and kinds.count(FEASIBILITY_CUT) > 100
    assert res.iterations == iters and not res.converged
    assert len(queried) == len(ref_queried) == iters
    assert all(np.array_equal(a, b) for a, b in zip(queried, ref_queried))
    assert np.array_equal(res.best_point, ref.best_point)
    assert res.best_value == ref.best_value
    assert res.gap_bound == ref.gap_bound
    assert np.array_equal(res.center, ref.center)
    assert res.shape_det == ref.shape_det
    return ref.alphas, kinds


def test_kernel_matches_textbook_update_bit_for_bit():
    alphas, kinds = assert_matches_textbook(deep=True)
    # deep cuts of both kinds, the first at the cap, and central ones too
    for kind in (OBJECTIVE_CUT, FEASIBILITY_CUT):
        assert sum(a > 0.0 for a, k in zip(alphas, kinds) if k == kind) > 50
    assert alphas[0] == DEEP_CUT_MAX
    assert 0 < alphas.count(0.0) < len(alphas)


def test_kernel_central_cuts_match_the_central_update_bit_for_bit():
    # no depth anywhere: the kernel runs the central-cut update as first
    # written, float for float
    alphas, _ = assert_matches_textbook(deep=False)
    assert set(alphas) == {0.0}


def test_deep_cuts_1d_keep_the_maximizer():
    # maximize -(x - 0.3)^2 from far off: every ellipsoid (an interval
    # of half-width sqrt(det A)) keeps the maximizer, and the gap bound
    # falls below 1e-12 in fewer iterations than with central cuts, which
    # halve the interval each time
    def oracle(x, deep=True):
        dx = x[0] - 0.3
        return CutOracleResult(OBJECTIVE_CUT, np.array([-2.0 * dx]),
                               -dx * dx if deep else 0.0)

    for k in range(1, 40):
        r = ellipsoid_run(oracle, np.array([7.0]), 10.0, max_iter=k)
        assert abs(0.3 - r.center[0]) <= math.sqrt(r.shape_det) * (1.0 + 1e-12)
    res = ellipsoid_run(oracle, np.array([7.0]), 10.0, max_iter=22)
    assert res.gap_bound <= 1e-12 and abs(res.best_point[0] - 0.3) < 1e-5
    central = ellipsoid_run(lambda x: oracle(x, deep=False), np.array([7.0]),
                            10.0, max_iter=22)
    assert central.gap_bound > 1e-12


def bowl_oracle(x):
    # maximize 10 - |x - (1, -2)|^2, positive on the initial ball
    dx = x - np.array([1.0, -2.0])
    return CutOracleResult(OBJECTIVE_CUT, -2.0 * dx, 10.0 - float(dx @ dx))


@pytest.mark.parametrize("center,radius,first_decade", [
    # the decades start at 1: a wide start crosses 1 first; a tight one
    # starts below 1e-8 and skips the decades it has already passed
    (np.zeros(2), 4.0, -1),
    (np.array([1.0001, -2.0001]), 1e-4, -9),
])
def test_checkpoint_fires_once_per_decade(center, radius, first_decade):
    iters = 120
    queried, calls = [], []

    def oracle(x):
        queried.append(x.copy())
        return bowl_oracle(x)

    def checkpoint(center, point, value):
        calls.append((len(queried), point.copy(), value))
        return False

    def run(max_iter, **kwargs):
        return ellipsoid_run(bowl_oracle, center, radius, max_iter=max_iter,
                             **kwargs)

    res = ellipsoid_run(oracle, center, radius, max_iter=iters,
                        checkpoint=checkpoint)
    plain = run(iters)
    # a checkpoint that never stops the run leaves it unchanged
    assert res.iterations == plain.iterations == iters and not res.converged
    assert np.array_equal(res.center, plain.center)
    assert res.gap_bound == plain.gap_bound

    # the relative gap bound after each iteration, from runs cut there
    rel = [None] + [r.gap_bound / abs(r.best_value)
                    for r in map(run, range(1, iters + 1))]
    expected, decade = [], 1.0
    for k in range(1, iters + 1):
        if rel[k] <= decade:
            expected.append(k)
            while rel[k] <= decade:
                decade *= 0.1
    assert len(expected) >= 3
    assert [k for k, _, _ in calls] == expected
    exponents = [math.floor(math.log10(rel[k])) for k in expected]
    assert exponents[0] <= first_decade
    assert all(a > b for a, b in zip(exponents, exponents[1:]))
    for k, point, value in calls:
        r = run(k)
        assert np.array_equal(point, r.best_point) and value == r.best_value


def test_checkpoint_receives_the_center_that_took_the_objective_cut():
    # on a problem whose optimum sits on the boundary both cut kinds keep
    # firing; every call gets the center the oracle just answered with an
    # objective cut, and the run goes on exactly as without a checkpoint
    queried, kinds, calls = [], [], []

    def checkpoint(center, point, value):
        calls.append((len(queried), center.copy(), point.copy(), value))
        return False

    center0, radius = np.full(5, 1.2), np.array([3.0, 1.0, 4.0, 2.0, 1.5])
    res = ellipsoid_run(boundary_oracle(queried, kinds), center0, radius,
                        max_iter=700, checkpoint=checkpoint)
    plain = ellipsoid_run(boundary_oracle([], []), center0, radius, max_iter=700)
    assert np.array_equal(res.center, plain.center)
    assert len(calls) >= 3
    for k, center, point, value in calls:
        assert kinds[k - 1] == OBJECTIVE_CUT and FEASIBILITY_CUT in kinds[:k]
        assert np.array_equal(center, queried[k - 1])
        r = ellipsoid_run(boundary_oracle([], []), center0, radius, max_iter=k)
        assert np.array_equal(point, r.best_point) and value == r.best_value


def test_checkpoint_true_stops_the_run():
    given = []

    def checkpoint(center, point, value):
        given.append((point.copy(), value))
        return len(given) == 2

    res = ellipsoid_run(bowl_oracle, np.zeros(2), 4.0, max_iter=500,
                        checkpoint=checkpoint)
    assert len(given) == 2
    assert res.converged and res.iterations < 500
    assert np.array_equal(res.best_point, given[-1][0])
    assert res.best_value == given[-1][1]


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_checkpoint_at_zero_gap_bound_terminates(value):
    # a zero supergradient gives a zero gap bound: the checkpoint fires
    # once, then the zero supergradient ends the run
    calls = []

    def oracle(x):
        return CutOracleResult(OBJECTIVE_CUT, np.zeros(2), value)

    res = ellipsoid_run(oracle, np.zeros(2), 1.0,
                        checkpoint=lambda c, x, v: calls.append(v) or False)
    assert calls == [value]
    assert res.converged and res.iterations == 1 and res.gap_bound == 0.0


def test_checkpoint_at_zero_best_value_terminates():
    # a zero value fires no decade checkpoint while the gap bound is
    # positive; the repeated cut then flattens the ellipsoid until the bound
    # reaches 0, which fires the decade checkpoint once. The shape has
    # broken down, so the checkpoint gets the best point before the restart,
    # and again before every later restart; the run goes on to max_iter
    calls, queried = [], []

    def oracle(x):
        queried.append(x.copy())
        return CutOracleResult(OBJECTIVE_CUT, np.array([1.0, -1.0]), 0.0)

    def checkpoint(center, point, value):
        calls.append((len(queried), center.copy(), point.copy(), value))
        return False

    res = ellipsoid_run(oracle, np.zeros(2), 1.0, max_iter=100,
                        checkpoint=checkpoint)
    assert res.iterations == 100 and not res.converged
    # every value is 0.0, so the start stays the best point, and a restart
    # re-queries it
    restarts = [k for k, x in enumerate(queried) if k > 0 and not x.any()]
    assert len(restarts) >= 2
    assert [v for _, _, _, v in calls] == [0.0] * (1 + len(restarts))
    assert calls[0][0] == calls[1][0] and calls[0][1].any()
    for (k, center, point, _), r in zip(calls[1:], restarts):
        assert k == r and not center.any() and not point.any()


def breakdown_oracle(queried, every):
    """The bowl problem, except that every `every`-th query answers with a
    feasibility cut so small that g'Ag underflows to 0: a numerical
    breakdown."""
    def oracle(x):
        queried.append(x.copy())
        if len(queried) % every == 0:
            return CutOracleResult(FEASIBILITY_CUT, np.array([1e-300, 1e-300]))
        return bowl_oracle(x)
    return oracle


def test_checkpoint_receives_the_best_point_before_each_restart():
    queried, calls = [], []

    def checkpoint(center, point, value):
        calls.append((len(queried), center.copy(), point.copy(), value))
        return False

    res = ellipsoid_run(breakdown_oracle(queried, 25), np.zeros(2), 4.0,
                        max_iter=200, checkpoint=checkpoint)
    assert res.iterations == 200 and not res.converged
    restart_calls = [c for c in calls if c[0] % 25 == 0]
    assert len(restart_calls) == 200 // 25
    for k, center, point, value in restart_calls:
        # the best point and value of the queries before the breakdown
        values = [bowl_oracle(x).value if (j + 1) % 25 else -np.inf
                  for j, x in enumerate(queried[:k])]
        best = int(np.argmax(values))
        assert np.array_equal(center, point)
        assert np.array_equal(point, queried[best]) and value == values[best]
        # the restart re-centers on that point
        if k < len(queried):
            assert np.array_equal(queried[k], point)


def test_breakdown_before_any_objective_cut_calls_no_checkpoint():
    calls = []
    res = ellipsoid_run(breakdown_oracle([], 1), np.zeros(2), 1.0, max_iter=5,
                        checkpoint=lambda c, x, v: calls.append(v) or True)
    assert calls == [] and res.best_point is None and not res.converged


def test_checkpoint_true_at_a_breakdown_stops_the_run():
    queried, given = [], []

    def checkpoint(center, point, value):
        given.append((len(queried), point.copy(), value))
        # accept only at the second breakdown
        return len(queried) == 50

    res = ellipsoid_run(breakdown_oracle(queried, 25), np.zeros(2), 4.0,
                        max_iter=500, checkpoint=checkpoint)
    assert res.converged and res.iterations == 50 == len(queried)
    assert given[-1][0] == 50
    assert np.array_equal(res.best_point, given[-1][1])
    assert res.best_value == given[-1][2]
