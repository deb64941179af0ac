"""Small dense linear-program solver (two-phase simplex, Bland's rule).

Sized for the package's one LP, primal recovery's (under ~10 variables;
the capacities have closed forms in coopmec.model). Bland's rule trades
speed for guaranteed termination, and every row of the constraint system
is scaled to unit max-norm first because the raw coefficients span ~30
orders of magnitude (capacitance constants vs CPU frequencies).

At this size numpy's per-call overhead outweighs its arithmetic, so the
tableau is a list of Python float rows; each entry goes through the same
IEEE operations a numpy tableau would apply. The final refinement solve
stays in numpy.
"""

from __future__ import annotations

import math

import numpy as np

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

PIVOT_TOL = 1e-11
FEAS_TOL = 1e-9


def lp_solve(c, A_ub, b_ub, ub) -> np.ndarray | None:
    """min c @ x  s.t.  A_ub @ x <= b_ub,  0 <= x <= ub, every ub finite.

    The arguments are sequences of floats (A_ub row by row). Returns x, or
    None when the LP is not solved to optimality; never raises on an
    infeasible instance.
    """
    n = len(c)
    # each upper bound is a row of its own
    rows = list(A_ub) + [[1.0 if k == j else 0.0 for k in range(n)] for j in range(n)]
    y = _two_phase(rows, list(b_ub) + list(ub), list(c))
    if y is None:
        return None
    # adding 0.0 turns a -0.0 into 0.0, so a zero column reads +0.0
    return np.clip(y + 0.0, 0.0, ub)


def _two_phase(rows: list, rhs: list, c: list) -> np.ndarray | None:
    """Simplex on A y <= b, y >= 0; rows are scaled and sign-normalized inside.

    Returns y, or None unless solved to optimality.
    """
    m, n = len(rows), len(c)
    # unit max-norm row scaling; keeps pivot tolerances meaningful
    row_max = np.maximum(np.abs(np.array(rows)).max(axis=1), np.abs(np.array(rhs)))
    scaled, b_scaled, sense = [], [], []  # sense -1: <=, +1: >= (a negated row)
    for row, b_i, s in zip(rows, rhs, row_max.tolist()):
        f = 1.0 / s if s > 0.0 else 1.0
        row = [v * f for v in row]
        b_i *= f
        if b_i < 0.0:
            row = [-v for v in row]
            b_i = -b_i
            sense.append(1)
        else:
            sense.append(-1)
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
        if _iterate(T, basis, banned) != OPTIMAL or -T[-1][-1] > FEAS_TOL:
            return None
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
    if _iterate(T, basis, banned) != OPTIMAL:
        return None

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
    return np.maximum(y, 0.0)[:n]


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
