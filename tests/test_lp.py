import itertools

import numpy as np
import pytest

from coopmec.lp import (
    FEAS_TOL,
    INFEASIBLE,
    OPTIMAL,
    PIVOT_TOL,
    UNBOUNDED,
    LpProblem,
    lp_solve,
)


def enumerate_optimum(prob: LpProblem) -> float:
    """Brute-force LP oracle: enumerate basic points from all constraint
    subsets (rows + active bounds) and keep the best feasible one."""
    n = prob.n
    rows = []
    rhs = []
    for A, b in ((prob.A_ub, prob.b_ub), (prob.A_eq, prob.b_eq)):
        for i in range(b.size):
            rows.append(np.asarray(A[i], float))
            rhs.append(float(b[i]))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        for v in (prob.lb[j], prob.ub[j]):
            if np.isfinite(v):
                rows.append(e.copy())
                rhs.append(float(v))
    best = np.inf
    for combo in itertools.combinations(range(len(rows)), n):
        A = np.array([rows[k] for k in combo])
        b = np.array([rhs[k] for k in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < prob.lb - 1e-9) or np.any(x > prob.ub + 1e-9):
            continue
        if prob.b_ub.size and np.any(prob.A_ub @ x > prob.b_ub + 1e-9 * np.maximum(1, np.abs(prob.b_ub))):
            continue
        if prob.b_eq.size and np.any(np.abs(prob.A_eq @ x - prob.b_eq) > 1e-9 * np.maximum(1, np.abs(prob.b_eq))):
            continue
        best = min(best, float(prob.c @ x))
    return best


def test_single_variable_box():
    sol = lp_solve(LpProblem(c=[-1.0], lb=[0.0], ub=[1.0]))
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.objective == pytest.approx(-1.0, abs=1e-12)


def test_simplex_edge():
    sol = lp_solve(LpProblem(
        c=[-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0], lb=[0.0, 0.0]
    ))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-12)


def test_equality_and_bounds():
    sol = lp_solve(LpProblem(
        c=[1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[3.0], lb=[0.0, 0.0], ub=[2.0, 5.0]
    ))
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [2.0, 1.0], atol=1e-10)


def test_infeasible():
    sol = lp_solve(LpProblem(
        c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -3.0], lb=[0.0]
    ))
    assert sol.status == INFEASIBLE
    assert sol.x is None


def test_unbounded():
    sol = lp_solve(LpProblem(c=[-1.0], lb=[0.0]))
    assert sol.status == UNBOUNDED


def test_free_variable():
    sol = lp_solve(LpProblem(
        c=[1.0], A_ub=[[-1.0]], b_ub=[5.0], lb=[-np.inf], ub=[np.inf]
    ))
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(-5.0, abs=1e-10)


def test_negative_lower_bounds():
    sol = lp_solve(LpProblem(c=[1.0, 1.0], lb=[-2.0, -3.0], ub=[5.0, 5.0]))
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [-2.0, -3.0], atol=1e-12)


def test_matches_enumeration_on_random_instances(rng):
    hits = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        prob = LpProblem(
            c=rng.normal(size=n),
            A_ub=rng.normal(size=(m, n)),
            b_ub=rng.uniform(0.5, 2.0, size=m),
            lb=np.zeros(n),
            ub=np.full(n, 3.0),
        )
        sol = lp_solve(prob)
        ref = enumerate_optimum(prob)
        assert sol.status == OPTIMAL  # bounded box, feasible at 0
        assert sol.objective == pytest.approx(ref, rel=1e-8, abs=1e-10)
        hits += 1
    assert hits == 60


def test_weak_duality_spot_check(rng):
    # any feasible point scores no better than the reported optimum
    prob = LpProblem(
        c=[1.0, -2.0, 0.5],
        A_ub=[[1.0, 1.0, 1.0], [2.0, -1.0, 0.0]],
        b_ub=[2.0, 1.0],
        lb=np.zeros(3),
        ub=np.full(3, 1.5),
    )
    sol = lp_solve(prob)
    assert sol.status == OPTIMAL
    for _ in range(200):
        x = rng.uniform(0.0, 1.5, size=3)
        if np.all(prob.A_ub @ x <= prob.b_ub):
            assert prob.c @ x >= sol.objective - 1e-9


def test_determinism_bit_identical():
    prob_kwargs = dict(
        c=[1.0, -2.0, 0.5],
        A_ub=[[1.0, 1.0, 1.0], [2.0, -1.0, 0.0]],
        b_ub=[2.0, 1.0],
        lb=np.zeros(3),
        ub=np.full(3, 1.5),
    )
    a = lp_solve(LpProblem(**prob_kwargs))
    b = lp_solve(LpProblem(**prob_kwargs))
    assert a.x.tobytes() == b.x.tobytes()
    assert a.objective == b.objective


def test_wide_magnitude_rows():
    # rows spanning ~20 orders of magnitude still solve after row scaling
    sol = lp_solve(LpProblem(
        c=[1.0, 1e-18],
        A_ub=[[-1.0, 0.0], [0.0, -1e-18]],
        b_ub=[-0.5, -1e-18],
        lb=[0.0, 0.0],
        ub=[10.0, 10.0],
    ))
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(0.5, rel=1e-9)
    assert sol.x[1] == pytest.approx(1.0, rel=1e-6)


def test_solution_satisfies_constraints(rng):
    for _ in range(30):
        n = int(rng.integers(2, 5))
        prob = LpProblem(
            c=rng.normal(size=n),
            A_ub=rng.normal(size=(2, n)),
            b_ub=rng.uniform(0.5, 2.0, size=2),
            A_eq=rng.normal(size=(1, n)),
            b_eq=[0.3],
            lb=np.full(n, -1.0),
            ub=np.full(n, 2.0),
        )
        sol = lp_solve(prob)
        if sol.status != OPTIMAL:
            continue
        assert np.all(prob.A_ub @ sol.x <= prob.b_ub + 1e-8)
        assert np.all(np.abs(prob.A_eq @ sol.x - prob.b_eq) <= 1e-8)
        assert np.all(sol.x >= prob.lb - 1e-9)
        assert np.all(sol.x <= prob.ub + 1e-9)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        LpProblem(c=[1.0, 2.0], A_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError):
        LpProblem(c=[1.0], lb=[2.0], ub=[1.0])


# -- the list tableau against the numpy tableau ------------------------------


def textbook_lp(prob: LpProblem):
    """lp_solve as first written, on a numpy tableau: the same column
    rewrite, row scaling and two-phase simplex (Bland's rule), with every
    row operation applied to a whole numpy row. Returns (status, x,
    residuals)."""
    n = prob.n
    cols = []
    for j in range(n):
        if np.isfinite(prob.lb[j]):
            cols.append(("shift", j))
        elif np.isfinite(prob.ub[j]):
            cols.append(("mirror", j))
        else:
            cols += [("pos", j), ("neg", j)]
    m_cols = len(cols)

    def expand(row):
        out, shift = np.zeros(m_cols), 0.0
        for k, (kind, j) in enumerate(cols):
            out[k] = -row[j] if kind in ("mirror", "neg") else row[j]
            if kind == "shift":
                shift += row[j] * prob.lb[j]
            elif kind == "mirror":
                shift += row[j] * prob.ub[j]
        return out, shift

    rows, rhs, is_eq = [], [], []
    for A, b, eq in ((prob.A_ub, prob.b_ub, False), (prob.A_eq, prob.b_eq, True)):
        for i in range(b.size):
            a_y, shift = expand(A[i])
            rows.append(a_y)
            rhs.append(b[i] - shift)
            is_eq.append(eq)
    for k, (kind, j) in enumerate(cols):
        if kind == "shift" and np.isfinite(prob.ub[j]):
            rows.append(np.eye(m_cols)[k])
            rhs.append(prob.ub[j] - prob.lb[j])
            is_eq.append(False)
    c, _ = expand(prob.c)
    A = np.array(rows) if rows else np.zeros((0, m_cols))
    b = np.array(rhs)
    scale = np.ones(b.size)
    for i in range(b.size):
        s = max(np.max(np.abs(A[i])), abs(b[i]))
        if s > 0.0:
            scale[i] = 1.0 / s
    status, y = textbook_two_phase(A * scale[:, None], b * scale, np.array(is_eq), c)
    if status != OPTIMAL:
        return status, None, None
    x = np.empty(n)
    for k, (kind, j) in enumerate(cols):
        if kind == "shift":
            x[j] = prob.lb[j] + y[k]
        elif kind == "mirror":
            x[j] = prob.ub[j] - y[k]
        elif kind == "pos":
            x[j] = y[k]
        else:
            x[j] -= y[k]
    x = np.clip(x, prob.lb, prob.ub)
    res = {}
    for key, A, b in (("ub", prob.A_ub, prob.b_ub), ("eq", prob.A_eq, prob.b_eq)):
        if b.size:
            r = A @ x - b
            r = np.abs(r) if key == "eq" else r
            s = np.maximum(np.max(np.abs(A), axis=1) * np.max(np.abs(x), initial=1.0), 1.0)
            res[key] = float(np.max(r / s))
    return OPTIMAL, x, res


def textbook_two_phase(A, b, is_eq, c):
    m, n = A.shape
    if m == 0:
        return (UNBOUNDED, None) if np.any(c < -PIVOT_TOL) else (OPTIMAL, np.zeros(n))
    A, b = A.copy(), b.copy()
    sense = np.where(is_eq, 0, -1)
    neg = b < 0.0
    A[neg] *= -1.0
    b[neg] *= -1.0
    sense[neg] *= -1
    n_slack, n_surp = int(np.sum(sense == -1)), int(np.sum(sense == 1))
    total = n + n_slack + n_surp + int(np.sum(sense >= 0))
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
            if sense[i] == 1:
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


def random_lp(rng) -> LpProblem:
    """A small LP with <= and = rows and every kind of column: [lb, ub],
    [lb, inf), mirrored (-inf, ub] and free. Small-integer coefficients
    make ties in the ratio test and degenerate pivots common."""
    n = int(rng.integers(1, 6))
    m_ub, m_eq = int(rng.integers(0, 5)), int(rng.integers(0, 3))

    def coef(*shape):
        if rng.random() < 0.5:
            return rng.integers(-3, 4, size=shape).astype(float)
        return rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)

    lb, ub = np.zeros(n), np.full(n, np.inf)
    for j in range(n):
        kind = rng.integers(4)
        if kind == 0:
            lb[j], ub[j] = rng.uniform(-2.0, 0.0), rng.uniform(0.5, 3.0)
        elif kind == 1:
            lb[j] = rng.uniform(-2.0, 1.0)
        elif kind == 2:
            lb[j], ub[j] = -np.inf, rng.uniform(-1.0, 2.0)
        else:
            lb[j] = -np.inf
    return LpProblem(
        c=coef(n),
        A_ub=coef(m_ub, n), b_ub=coef(m_ub),
        A_eq=coef(m_eq, n), b_eq=coef(m_eq),
        lb=lb, ub=ub,
    )


def solver_lps(monkeypatch) -> list[LpProblem]:
    """The recovery LPs the solver itself builds."""
    import coopmec.p1
    from coopmec.bench import run_benchmark
    from conftest import desk_params, random_params

    seen = []
    real = coopmec.p1.lp_solve
    monkeypatch.setattr(coopmec.p1, "lp_solve",
                        lambda prob: seen.append(prob) or real(prob))
    rng = np.random.default_rng(7)
    for p in (desk_params(T=0.03), random_params(rng), random_params(rng, frac=0.999)):
        for scheme in ("joint-partial", "comp-binary", "comm-partial"):
            run_benchmark(scheme, p)
    return seen


#: ratio tests whose two smallest ratios lie within the 1e-12 tie band but
#: are not equal, so the tie-break, not the strict minimum, picks the row
NEAR_TIES = [
    LpProblem(c=[-1.0], A_ub=[[1.0], [1.0]], b_ub=[1.0 + 4e-16, 1.0]),
    LpProblem(c=[-1.0, -2.0], A_ub=[[2.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
              b_ub=[3.0, 1.0 + 1e-15, 1.0], lb=[0.0, -1.0]),
]


def test_simplex_matches_numpy_tableau_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(20250808)
    probs = NEAR_TIES + [random_lp(rng) for _ in range(400)] + solver_lps(monkeypatch)
    statuses = []
    for prob in probs:
        status, x, res = textbook_lp(prob)
        sol = lp_solve(prob)
        assert sol.status == status
        statuses.append(status)
        if status == OPTIMAL:
            assert sol.x.tobytes() == x.tobytes()
            assert sol.objective == float(prob.c @ x)
            assert sol.residuals == res
    # every branch of the two phases ran
    assert {OPTIMAL, INFEASIBLE, UNBOUNDED} <= set(statuses)
    assert len(probs) - 402 > 50  # the solver's own LPs took part


def test_matches_highs_on_random_instances():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(99)
    codes = {OPTIMAL: 0, INFEASIBLE: 2, UNBOUNDED: 3}
    seen = set()
    for _ in range(200):
        n = int(rng.integers(1, 6))
        m_ub, m_eq = int(rng.integers(0, 5)), int(rng.integers(0, 3))
        lb = np.where(rng.random(n) < 0.3, -np.inf, rng.uniform(-2.0, 0.0, n))
        ub = np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0.5, 3.0, n))
        prob = LpProblem(
            c=rng.normal(size=n),
            A_ub=rng.normal(size=(m_ub, n)), b_ub=rng.normal(size=m_ub),
            A_eq=rng.normal(size=(m_eq, n)), b_eq=rng.normal(size=m_eq),
            lb=lb, ub=ub,
        )
        sol = lp_solve(prob)
        ref = linprog(prob.c, A_ub=prob.A_ub if m_ub else None,
                      b_ub=prob.b_ub if m_ub else None,
                      A_eq=prob.A_eq if m_eq else None,
                      b_eq=prob.b_eq if m_eq else None,
                      bounds=[(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
                              for lo, hi in zip(lb, ub)],
                      method="highs")
        assert codes[sol.status] == ref.status
        seen.add(sol.status)
        if sol.status == OPTIMAL:
            assert sol.objective == pytest.approx(ref.fun, rel=1e-8, abs=1e-9)
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}
