"""Property test of the deep-cut ellipsoid on random concave quadratics.

Each draw builds max f(x) s.t. G x <= h in n = 2..5 dimensions with a
known maximizer x*: f(x) = l'(x - x*) - (x - x*)'Q(x - x*)/2 with Q
positive definite and l = G_A' lambda for the constraints A active at x*
(lambda > 0), so x* satisfies the KKT conditions and f* = 0. The oracle
reports f + 1, whose maximum 1 makes the checkpoint's relative gap bound
the absolute one. It cuts deep on both kinds: objective cuts through the
kernel's best value, feasibility cuts through the reported violation
G_i x - h_i.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coopmec.ellipsoid import (  # noqa: E402
    FEASIBILITY_CUT,
    OBJECTIVE_CUT,
    CutOracleResult,
    ellipsoid_run,
)
from test_ellipsoid import textbook_run  # noqa: E402

TOL = 1e-7
#: the checkpoint call that stops a run: the decades start at 1, so the
#: k-th call comes once the relative gap bound is at most 1e-(k - 1), and
#: the 8th one at TOL
STOP_CALL = 8


def quadratic_program(n: int, seed: int):
    rng = np.random.default_rng(seed)
    x_star = rng.normal(size=n)
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.1 * np.eye(n)
    m = int(rng.integers(1, 2 * n + 1))
    G = rng.normal(size=(m, n))
    active = int(rng.integers(0, min(m, n) + 1))
    slack = np.concatenate([np.zeros(active), rng.uniform(0.1, 2.0, m - active)])
    h = G @ x_star + slack
    lin = G[:active].T @ rng.uniform(0.1, 2.0, active)

    def oracle(x):
        over = G @ x - h
        i = int(np.argmax(over))
        if over[i] > 0.0:
            return CutOracleResult(FEASIBILITY_CUT, G[i], violation=float(over[i]))
        dx = x - x_star
        return CutOracleResult(OBJECTIVE_CUT, lin - Q @ dx,
                               1.0 + float(lin @ dx - 0.5 * dx @ Q @ dx))

    # an axis-aligned start that holds x*
    center = x_star + 2.0 * rng.normal(size=n)
    radius = 1.01 * np.linalg.norm(center - x_star) * rng.uniform(1.0, 3.0, n)
    return x_star, oracle, center, radius


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_deep_cuts_keep_the_maximizer_and_converge(n, seed):
    x_star, oracle, center, radius = quadratic_program(n, seed)
    queried = []

    def recording(x):
        queried.append(x.copy())
        return oracle(x)

    calls = []

    def checkpoint(center, point, value):
        calls.append(value)
        return len(calls) == STOP_CALL

    res = ellipsoid_run(recording, center, radius, max_iter=5000,
                        checkpoint=checkpoint)
    assert res.converged and len(calls) == STOP_CALL
    # the maximum is 1, and the gap bound at the last call, at most
    # TOL * |best value|, bounds how far the best value lies below it
    assert -TOL <= res.best_value - 1.0 <= 1e-12

    # the kernel took the reference's deep-cut steps (bit for bit), and
    # every one of the reference's ellipsoids holds x*
    ref_queried, ellipsoids = [], []
    ref = textbook_run(lambda x: ref_queried.append(x.copy()) or oracle(x),
                       center, radius, res.iterations, ellipsoids)
    assert any(a > 0.0 for a in ref.alphas)
    assert len(queried) == len(ref_queried)
    assert all(np.array_equal(a, b) for a, b in zip(queried, ref_queried))
    for c, A in ellipsoids:
        d = x_star - c
        assert d @ np.linalg.solve(A, d) <= 1.0 + 1e-9
