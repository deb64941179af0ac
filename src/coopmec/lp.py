"""Small dense linear-program solver (two-phase simplex, Bland's rule).

Sized for the package's one LP, primal recovery's (under ~10 variables;
the capacities have closed forms in coopmec.model). Bland's rule trades
speed for guaranteed termination, and every row of the constraint system
is scaled to unit max-norm first because the raw coefficients span ~30
orders of magnitude (capacitance constants vs CPU frequencies). Equality
rows and free columns serve the tests' general LPs.

At this size numpy's per-call overhead outweighs its arithmetic, so the
tableau is a list of Python float rows; each entry goes through the same
IEEE operations a numpy tableau would apply. The final refinement solve
and the residuals stay in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-11
FEAS_TOL = 1e-9


@dataclass
class LpProblem:
    """min c @ x  s.t.  A_ub @ x <= b_ub,  A_eq @ x = b_eq,  lb <= x <= ub.

    Any of the constraint blocks may be empty; bounds may be +-inf.
    """

    c: np.ndarray
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        self.c = _at_least(self.c, 1)
        n = self.c.size
        self.A_ub, self.b_ub = _as_block(self.A_ub, self.b_ub, n, "A_ub/b_ub")
        self.A_eq, self.b_eq = _as_block(self.A_eq, self.b_eq, n, "A_eq/b_eq")
        self.lb = np.zeros(n) if self.lb is None else np.asarray(self.lb, float)
        self.ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, float)
        if self.lb.size != n or self.ub.size != n:
            raise ValueError("bound vectors must match the number of variables")
        if (self.lb > self.ub).any():
            raise ValueError("lower bound exceeds upper bound")

    @property
    def n(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    residuals: dict[str, float] = field(default_factory=dict)


def _at_least(v, ndim: int) -> np.ndarray:
    """v as a float array, like np.atleast_1d/_2d without their dispatch."""
    a = np.asarray(v, dtype=float)
    return a if a.ndim >= ndim else a.reshape((1,) * (ndim - a.ndim) + a.shape)


def _as_block(A, b, n, what):
    if A is None and b is None:
        return np.zeros((0, n)), np.zeros(0)
    A = _at_least(A, 2)
    b = _at_least(b, 1)
    if A.shape != (b.size, n):
        raise ValueError(f"inconsistent {what} shapes: {A.shape} vs b{b.shape}, n={n}")
    return A, b


def lp_solve(prob: LpProblem) -> LpSolution:
    """Solve an LpProblem; never raises on infeasible/unbounded instances."""
    n = prob.n
    lb, ub = prob.lb.tolist(), prob.ub.tolist()

    # Shift to y >= 0 variables: finite lb -> y = x - lb; lb = -inf with
    # finite ub -> mirrored y = ub - x; doubly free -> split y+ - y-.
    col_map = []  # (kind, x_index) with kind in {shift, mirror, pos, neg}
    for j in range(n):
        if math.isfinite(lb[j]):
            col_map.append(("shift", j))
        elif math.isfinite(ub[j]):
            col_map.append(("mirror", j))
        else:
            col_map += (("pos", j), ("neg", j))
    m_cols = len(col_map)
    signs = [(j, kind in ("mirror", "neg")) for kind, j in col_map]
    # a row's constant shift: its coefficient times lb (shift) or ub (mirror)
    offsets = [(j, lb[j] if kind == "shift" else ub[j])
               for kind, j in col_map if kind in ("shift", "mirror")]

    rows: list[list[float]] = []
    rhs: list[float] = []
    for A, b in ((prob.A_ub, prob.b_ub), (prob.A_eq, prob.b_eq)):
        for a, b_i in zip(A.tolist(), b.tolist()):
            shift = 0.0
            for j, v in offsets:
                shift += a[j] * v
            rows.append([-a[j] if neg else a[j] for j, neg in signs])
            rhs.append(b_i - shift)
    is_eq = [False] * prob.b_ub.size + [True] * prob.b_eq.size
    # residual upper bounds ub - lb for shifted columns
    for k, (kind, j) in enumerate(col_map):
        if kind == "shift" and math.isfinite(ub[j]):
            row = [0.0] * m_cols
            row[k] = 1.0
            rows.append(row)
            rhs.append(ub[j] - lb[j])
            is_eq.append(False)

    c = prob.c.tolist()
    y, status = _two_phase(rows, rhs, is_eq, [-c[j] if neg else c[j] for j, neg in signs])
    if status != OPTIMAL:
        return LpSolution(status=status)

    x = [0.0] * n
    for (kind, j), y_k in zip(col_map, y):
        if kind == "shift":
            x[j] = lb[j] + y_k
        elif kind == "mirror":
            x[j] = ub[j] - y_k
        elif kind == "pos":
            x[j] = y_k
        else:
            x[j] -= y_k
    x = np.clip(x, prob.lb, prob.ub)

    res = _residuals(prob, x)
    return LpSolution(status=OPTIMAL, x=x, objective=float(prob.c @ x), residuals=res)


def _residuals(prob: LpProblem, x: np.ndarray) -> dict[str, float]:
    out = {}
    x_max = np.abs(x).max(initial=1.0)
    if prob.b_ub.size:
        r = prob.A_ub @ x - prob.b_ub
        s = np.maximum(np.abs(prob.A_ub).max(axis=1) * x_max, 1.0)
        out["ub"] = float((r / s).max())
    if prob.b_eq.size:
        r = np.abs(prob.A_eq @ x - prob.b_eq)
        s = np.maximum(np.abs(prob.A_eq).max(axis=1) * x_max, 1.0)
        out["eq"] = float((r / s).max())
    return out


def _two_phase(rows: list, rhs: list, is_eq: list, c: list):
    """Simplex on A y (<=,=) b, y >= 0; rows are scaled and sign-normalized inside.

    Returns (y as a list of floats, OPTIMAL), or (None, the status).
    """
    m, n = len(rows), len(c)
    if m == 0:
        # unconstrained over y >= 0: bounded iff c >= 0
        if any(cj < -PIVOT_TOL for cj in c):
            return None, UNBOUNDED
        return [0.0] * n, OPTIMAL

    # unit max-norm row scaling; keeps pivot tolerances meaningful
    row_max = np.maximum(np.abs(np.array(rows)).max(axis=1), np.abs(np.array(rhs)))
    scaled, b_scaled, sense = [], [], []  # sense -1: <=, 0: =, +1: >=
    for row, b_i, eq, s in zip(rows, rhs, is_eq, row_max.tolist()):
        f = 1.0 / s if s > 0.0 else 1.0
        row = [v * f for v in row]
        b_i *= f
        if b_i < 0.0:
            row = [-v for v in row]
            b_i = -b_i
            sense.append(0 if eq else 1)
        else:
            sense.append(0 if eq else -1)
        scaled.append(row)
        b_scaled.append(b_i)

    n_slack = sense.count(-1)
    n_surp = sense.count(1)
    total = n + m + n_surp  # structural, slack/artificial per row, surplus
    si = n
    pi = n + n_slack
    ai = n + n_slack + n_surp
    T: list[list[float]] = []
    basis: list[int] = []
    art_cols = []
    for i in range(m):
        t = scaled[i] + [0.0] * (total - n) + [b_scaled[i]]
        if sense[i] == -1:
            t[si] = 1.0
            basis.append(si)
            si += 1
        else:
            if sense[i] == 1:
                t[pi] = -1.0
                pi += 1
            t[ai] = 1.0
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        T.append(t)
    A0 = np.array([t[:total] for t in T])
    b0 = np.array(b_scaled)
    T.append([0.0] * (total + 1))  # the objective row
    banned = frozenset(art_cols)

    # phase 1: minimize the artificial sum
    if art_cols:
        obj = T[-1]
        for i in range(m):
            if basis[i] in banned:
                obj = [o - t for o, t in zip(obj, T[i])]
        for j in art_cols:
            obj[j] += 1.0
        T[-1] = obj
        status = _iterate(T, basis, banned)
        if status != OPTIMAL:
            return None, INFEASIBLE
        if -T[-1][-1] > FEAS_TOL:
            return None, INFEASIBLE
        # drive leftover artificials out of the basis (degenerate rows)
        for i in range(m):
            if basis[i] in banned:
                for j in range(total):
                    if j not in banned and abs(T[i][j]) > PIVOT_TOL:
                        _pivot(T, i, j)
                        basis[i] = j
                        break
                # else: redundant row; its artificial stays basic at 0

    # phase 2
    obj = c + [0.0] * (total + 1 - n)
    for i in range(m):
        cj = obj[basis[i]]
        if cj != 0.0:
            obj = [o - cj * t for o, t in zip(obj, T[i])]
    T[-1] = obj
    status = _iterate(T, basis, banned)
    if status != OPTIMAL:
        return None, status

    y = np.zeros(total)
    y[basis] = [T[i][-1] for i in range(m)]
    # refine the basic solution against the original system; pivoting
    # arithmetic leaves ~tolerance-sized residuals that matter downstream

    def sys_residual(yy):
        return max(
            float(np.max(np.abs(A0 @ yy - b0), initial=0.0)),
            float(np.max(-yy, initial=0.0)),
        )

    try:
        yb = np.linalg.solve(A0[:, basis], b0)
        y_ref = np.zeros(total)
        y_ref[basis] = yb
        if np.all(np.isfinite(yb)) and sys_residual(
            np.maximum(y_ref, 0.0)
        ) <= sys_residual(np.maximum(y, 0.0)):
            y = y_ref
    except np.linalg.LinAlgError:
        pass
    y = np.maximum(y, 0.0)
    return y[:n].tolist(), OPTIMAL


def _iterate(T: list, basis: list, banned: frozenset[int]) -> str:
    """Run simplex pivots to optimality with Bland's anti-cycling rule.

    Columns in `banned` (the artificials once they are nonbasic) never
    re-enter; that is the standard drop-artificials variant and keeps the
    phase-1 infeasibility certificate intact.
    """
    m = len(T) - 1
    ncols = len(T[0]) - 1
    for _ in range(100_000):
        obj = T[-1]
        enter = -1
        for j in range(ncols):
            if obj[j] < -PIVOT_TOL and j not in banned:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        # ratio test over the rows with a positive entering coefficient
        ratios = []
        for i in range(m):
            a = T[i][enter]
            if a > PIVOT_TOL:
                r = T[i][-1] / a
                if r != r:
                    return UNBOUNDED  # a NaN ratio, as numpy's min would give
                ratios.append((r, i))
        if not ratios:
            return UNBOUNDED
        rmin = min(r for r, _ in ratios)
        if not math.isfinite(rmin):
            return UNBOUNDED
        # Bland tie-break: smallest basic-variable index among min ratios
        band = rmin + 1e-12 * max(1.0, abs(rmin))
        leave = min((i for r, i in ratios if r <= band), key=basis.__getitem__)
        _pivot(T, leave, enter)
        basis[leave] = enter
    return "stalled"  # unreachable with Bland's rule; defensive


def _pivot(T: list, row: int, col: int) -> None:
    piv = T[row][col]
    p = T[row] = [v / piv for v in T[row]]
    for r, t in enumerate(T):
        f = t[col]
        if r != row and f != 0.0:
            T[r] = [a - f * b for a, b in zip(t, p)]
