import itertools

import numpy as np
import pytest

from coopmec.lp import FEAS_TOL, OPTIMAL, PIVOT_TOL, UNBOUNDED, lp_solve

INFEASIBLE = "infeasible"


def enumerate_optimum(c, A_ub, b_ub, ub) -> float:
    """Brute-force LP oracle: enumerate basic points from all constraint
    subsets (rows + active bounds) and keep the best feasible one."""
    c, A_ub, b_ub, ub = map(np.asarray, (c, A_ub, b_ub, ub))
    n = c.size
    rows = list(A_ub) + list(np.eye(n)) + list(np.eye(n))
    rhs = list(b_ub) + [0.0] * n + list(ub)
    best = np.inf
    for combo in itertools.combinations(range(len(rows)), n):
        A = np.array([rows[k] for k in combo])
        b = np.array([rhs[k] for k in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9) or np.any(x > ub + 1e-9):
            continue
        if np.any(A_ub @ x > b_ub + 1e-9 * np.maximum(1, np.abs(b_ub))):
            continue
        best = min(best, float(c @ x))
    return best


def test_single_variable_box():
    x = lp_solve([-1.0], [], [], [1.0])
    assert x[0] == pytest.approx(1.0, abs=1e-12)


def test_simplex_edge():
    x = lp_solve([-1.0, -1.0], [[1.0, 1.0]], [1.0], [2.0, 2.0])
    assert -x.sum() == pytest.approx(-1.0, abs=1e-12)


def test_infeasible():
    assert lp_solve([1.0], [[1.0], [-1.0]], [1.0, -3.0], [5.0]) is None


def test_matches_enumeration_on_random_instances(rng):
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        lp = (rng.normal(size=n), rng.normal(size=(m, n)),
              rng.uniform(0.5, 2.0, size=m), np.full(n, 3.0))
        x = lp_solve(*lp)
        assert x is not None  # bounded box, feasible at 0
        assert lp[0] @ x == pytest.approx(enumerate_optimum(*lp), rel=1e-8, abs=1e-10)


WEAK_DUALITY_LP = (
    [1.0, -2.0, 0.5],
    [[1.0, 1.0, 1.0], [2.0, -1.0, 0.0]],
    [2.0, 1.0],
    [1.5, 1.5, 1.5],
)


def test_weak_duality_spot_check(rng):
    # any feasible point scores no better than the reported optimum
    c, A_ub, b_ub, _ = map(np.asarray, WEAK_DUALITY_LP)
    best = c @ lp_solve(*WEAK_DUALITY_LP)
    for _ in range(200):
        x = rng.uniform(0.0, 1.5, size=3)
        if np.all(A_ub @ x <= b_ub):
            assert c @ x >= best - 1e-9


def test_determinism_bit_identical():
    a = lp_solve(*WEAK_DUALITY_LP)
    b = lp_solve(*WEAK_DUALITY_LP)
    assert a.tobytes() == b.tobytes()


def test_wide_magnitude_rows():
    # rows spanning ~20 orders of magnitude still solve after row scaling
    x = lp_solve([1.0, 1e-18], [[-1.0, 0.0], [0.0, -1e-18]], [-0.5, -1e-18],
                 [10.0, 10.0])
    assert x[0] == pytest.approx(0.5, rel=1e-9)
    assert x[1] == pytest.approx(1.0, rel=1e-6)


def test_solution_satisfies_constraints(rng):
    solved = 0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        A_ub = rng.normal(size=(3, n))
        b_ub = np.append(rng.uniform(0.5, 2.0, size=2), -0.3)
        ub = np.full(n, 2.0)
        x = lp_solve(rng.normal(size=n), A_ub, b_ub, ub)
        if x is None:
            continue
        solved += 1
        assert np.all(A_ub @ x <= b_ub + 1e-8)
        assert np.all(x >= 0.0)
        assert np.all(x <= ub)
    assert solved > 0


# -- the list tableau against the numpy tableau ------------------------------


def textbook_lp(c, A_ub, b_ub, ub):
    """lp_solve as first written, on a numpy tableau: the same upper-bound
    rows, row scaling and two-phase simplex (Bland's rule), with every row
    operation applied to a whole numpy row. Returns (status, x)."""
    c, ub = np.asarray(c, float), np.asarray(ub, float)
    n = c.size
    A = np.vstack([np.asarray(A_ub, float).reshape(-1, n), np.eye(n)])
    b = np.concatenate([np.asarray(b_ub, float), ub])
    scale = np.ones(b.size)
    for i in range(b.size):
        s = max(np.max(np.abs(A[i])), abs(b[i]))
        if s > 0.0:
            scale[i] = 1.0 / s
    status, y = textbook_two_phase(A * scale[:, None], b * scale, c)
    if status != OPTIMAL:
        return status, None
    return OPTIMAL, np.clip(0.0 + y, 0.0, ub)


def textbook_two_phase(A, b, c):
    m, n = A.shape
    A, b = A.copy(), b.copy()
    sense = np.full(m, -1)
    neg = b < 0.0
    A[neg] *= -1.0
    b[neg] *= -1.0
    sense[neg] *= -1
    n_slack, n_surp = int(np.sum(sense == -1)), int(np.sum(sense == 1))
    total = n + n_slack + 2 * n_surp
    T = np.zeros((m + 1, total + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    basis = np.empty(m, dtype=int)
    si, pi, ai = n, n + n_slack, n + n_slack + n_surp
    art = []
    for i in range(m):
        if sense[i] == -1:
            T[i, si], basis[i], si = 1.0, si, si + 1
        else:
            T[i, pi], pi = -1.0, pi + 1
            T[i, ai], basis[i] = 1.0, ai
            art.append(ai)
            ai += 1
    A0 = T[:m, :total].copy()
    if art:
        obj = np.zeros(total + 1)
        for i in range(m):
            if basis[i] in art:
                obj -= T[i]
        obj[art] += 1.0
        T[-1] = obj
        if textbook_iterate(T, basis, set(art)) != OPTIMAL or -T[-1, -1] > FEAS_TOL:
            return INFEASIBLE, None
        for i in range(m):
            if basis[i] in art:
                for j in range(total):
                    if j not in art and abs(T[i, j]) > PIVOT_TOL:
                        textbook_pivot(T, i, j)
                        basis[i] = j
                        break
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i in range(m):
        cj = T[-1, basis[i]]
        if cj != 0.0:
            T[-1] -= cj * T[i]
    status = textbook_iterate(T, basis, set(art))
    if status != OPTIMAL:
        return status, None
    y = np.zeros(total)
    y[basis] = T[:m, -1]

    def sys_residual(yy):
        return max(float(np.max(np.abs(A0 @ yy - b), initial=0.0)),
                   float(np.max(-yy, initial=0.0)))

    try:
        y_ref = np.zeros(total)
        y_ref[basis] = np.linalg.solve(A0[:, basis], b)
        if (np.all(np.isfinite(y_ref))
                and sys_residual(np.maximum(y_ref, 0.0)) <= sys_residual(np.maximum(y, 0.0))):
            y = y_ref
    except np.linalg.LinAlgError:
        pass
    return OPTIMAL, np.maximum(y, 0.0)[:n]


def textbook_iterate(T, basis, banned):
    m = T.shape[0] - 1
    for _ in range(100_000):
        enter = next((j for j in range(T.shape[1] - 1)
                      if j not in banned and T[-1, j] < -PIVOT_TOL), -1)
        if enter < 0:
            return OPTIMAL
        col = T[:m, enter]
        ok = col > PIVOT_TOL
        ratios = np.full(m, np.inf)
        ratios[ok] = T[:m, -1][ok] / col[ok]
        rmin = ratios.min()
        if not np.isfinite(rmin):
            return UNBOUNDED
        ties = np.flatnonzero(ratios <= rmin + 1e-12 * max(1.0, abs(rmin)))
        leave = int(ties[np.argmin(basis[ties])])
        textbook_pivot(T, leave, enter)
        basis[leave] = enter
    return "stalled"


def textbook_pivot(T, row, col):
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]


def random_lp(rng):
    """A small LP (c, A_ub, b_ub, ub) with 0 <= x <= ub. Small-integer
    coefficients make ties in the ratio test and degenerate pivots
    common; a negative b_ub makes a >= row, and phase 1 runs."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(0, 5))

    def coef(*shape):
        if rng.random() < 0.5:
            return rng.integers(-3, 4, size=shape).astype(float)
        return rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)

    return coef(n), coef(m, n), coef(m), rng.uniform(0.5, 3.0, size=n)


def solver_lps(monkeypatch) -> list[tuple]:
    """The recovery LPs the solver itself builds. The cold face solves are
    off: they answer most of the batch with no recovery LP at all."""
    import coopmec.p1
    from coopmec.bench import run_benchmark
    from conftest import desk_params, no_cold_attempt, random_params

    no_cold_attempt(monkeypatch)
    seen = []
    real = coopmec.p1.lp_solve
    monkeypatch.setattr(coopmec.p1, "lp_solve",
                        lambda *args: seen.append(args) or real(*args))
    rng = np.random.default_rng(7)
    instances = [desk_params(T=0.03), random_params(rng), random_params(rng, frac=0.999)]
    # a certified solve runs about one recovery LP, so it takes a batch
    instances += [random_params(rng) for _ in range(20)]
    for p in instances:
        for scheme in ("joint-partial", "comp-binary", "comm-partial"):
            run_benchmark(scheme, p)
    return seen


#: ratio tests whose two smallest ratios lie within the 1e-12 tie band but
#: are not equal, so the tie-break, not the strict minimum, picks the row
NEAR_TIES = [
    ([-1.0], [[1.0], [1.0]], [1.0 + 4e-16, 1.0], [2.0]),
    ([-1.0, -2.0], [[2.0, 1.0], [1.0, 1.0], [1.0, 1.0]], [4.0, 2.0 + 1e-15, 2.0],
     [10.0, 10.0]),
]


def test_simplex_matches_numpy_tableau_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(20250808)
    lps = NEAR_TIES + [random_lp(rng) for _ in range(400)] + solver_lps(monkeypatch)
    statuses = []
    for lp in lps:
        status, x = textbook_lp(*lp)
        sol = lp_solve(*lp)
        statuses.append(status)
        if status == OPTIMAL:
            assert sol.tobytes() == x.tobytes()
        else:
            assert sol is None
    # both phases ran to both of their ends
    assert {OPTIMAL, INFEASIBLE} <= set(statuses)
    assert len(lps) - 402 > 50  # the solver's own LPs took part


def test_matches_highs_on_random_instances():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(99)
    seen = set()
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 5))
        c = rng.normal(size=n)
        A_ub, b_ub = rng.normal(size=(m, n)), rng.normal(size=m)
        ub = rng.uniform(0.5, 3.0, n)
        x = lp_solve(c, A_ub, b_ub, ub)
        ref = linprog(c, A_ub=A_ub if m else None, b_ub=b_ub if m else None,
                      bounds=[(0.0, hi) for hi in ub], method="highs")
        assert ref.status in (0, 2)  # optimal or infeasible
        assert (x is not None) == (ref.status == 0)
        seen.add(ref.status)
        if x is not None:
            assert c @ x == pytest.approx(ref.fun, rel=1e-8, abs=1e-9)
    assert seen == {0, 2}
