"""Independent correctness checks for one benchmark run.

Nothing here calls the solver's own model code: rates, constraint
residuals, energies and capacities are recomputed from the raw fields of
each `Allocation` and `SystemParams`, the capacities are re-solved with
`scipy.optimize.linprog(method="highs")`, and a fixed subset of instances
is re-minimized with `scipy.optimize.minimize`. The one borrowed
instrument is the package's KKT residual (`coopmec.oracle.kkt_residuals`),
which defines the 1e-6 bound that a report of `optimal` promises.

An operation fails when any check rejects it: `nonconverged` on an
instance the scheme can carry, an `infeasible` status the capacity LP
contradicts, an `optimal` allocation that is infeasible, mis-priced,
breaks the scheme's pins, misses the gap or KKT bound, or disagrees with
the scipy minimizer, or a broken property of the sweep.

A reported capacity (`SolveReport.l_max`) that differs from the LP is
counted apart and does not fail the operation: the package's joint
capacity LP is wrong on about one random instance in ten (see
perfbench/README.md), so a failure count built on it would move with
the seed.
"""

from __future__ import annotations

import math

import numpy as np

GAP_TOL = 1e-5
KKT_TOL = 1e-6
FEAS_TOL = 1e-9
ENERGY_REL_TOL = 1e-9
CAPACITY_REL_TOL = 1e-9
MINIMIZER_REL_TOL = 1e-3
ORDER_TOL = 1e-9
LOCAL_CLOSED_FORM_TOL = 1e-12

#: routes each scheme keeps at zero bits
SCHEME_PINS = {
    "local": {"l_h": 0.0, "l_a": 0.0},
    "comp-partial": {"l_a": 0.0},
    "comm-partial": {"l_h": 0.0},
    "comp-binary": {"l_u": 0.0, "l_a": 0.0},
    "comm-binary": {"l_u": 0.0, "l_h": 0.0},
    "joint-partial": {},
}
BINARY_MODES = ("local", "comp-binary", "comm-binary")


# -- link rates and energies, from the raw fields -----------------------------


def _rate(B, h, P, noise, gap=1.0):
    """B log2(1 + h P / (gamma sigma^2)), in bits/s."""
    return B * math.log2(1.0 + h * P / (gap * noise))


def rate_user_helper(p, P):
    return _rate(p.B, p.h01, P, p.sigma1_sq, p.gamma_gap)


def rate_user_ap(p, P):
    return _rate(p.B, p.h0, P, p.sigma0_sq)


def rate_helper_ap(p, P):
    return _rate(p.B, p.h1, P, p.sigma0_sq)


def energy(a, p) -> float:
    """User and helper energy of an allocation, in joules."""
    e = a.tau1 * a.P1 + a.tau2 * a.P2 + a.tau3 * a.P3
    if a.l_u > 0.0:
        e += p.kappa_u * p.c_u**3 * a.l_u**3 / p.T**2
    if a.l_h > 0.0:
        e += p.kappa_h * p.c_h**3 * a.l_h**3 / (p.T - a.tau1) ** 2
    return e


def residuals(a, p) -> dict[str, float]:
    """Signed, scale-normalized residuals; positive means violated."""
    bits = max(p.L, 1.0)
    tau4 = p.c_a * a.l_a / p.f_a_max
    res = {
        "bit_partition": abs(a.l_u + a.l_h + a.l_a - p.L) / bits,
        "deadline": (a.tau1 + a.tau2 + a.tau3 + tau4 - p.T) / p.T,
        "tau4_field": abs(a.tau4 - tau4) / p.T,
        "helper_rate": (a.l_h - a.tau1 * rate_user_helper(p, a.P1)) / bits,
        "relay_sum_rate": (a.l_a - a.tau2 * rate_user_ap(p, a.P2)
                           - a.tau3 * rate_helper_ap(p, a.P3)) / bits,
        "relay_decode_rate": (a.l_a - a.tau2 * rate_user_helper(p, a.P2)) / bits,
        "P1": max(-a.P1, a.P1 - p.P_u_max) / p.P_u_max,
        "P2": max(-a.P2, a.P2 - p.P_u_max) / p.P_u_max,
        "P3": max(-a.P3, a.P3 - p.P_h_max) / p.P_h_max,
        "f_u": (p.c_u * a.l_u / p.T - p.f_u_max) / p.f_u_max,
    }
    for name in ("tau1", "tau2", "tau3"):
        v = getattr(a, name)
        res[name] = max(-v, v - p.T) / p.T
    for name in ("l_u", "l_h", "l_a"):
        res[name] = -getattr(a, name) / bits
    window = p.T - a.tau1
    if a.l_h > 0.0:
        res["f_h"] = ((p.c_h * a.l_h - window * p.f_h_max)
                      / (p.T * p.f_h_max))
    return res


# -- capacities, re-solved with HiGHS -----------------------------------------


def capacity(p, scheme: str) -> float:
    """Largest task (bits) the scheme can finish in the block.

    At capacity every transmitter runs at its power cap, so the rate
    constraints are linear in the slots: an LP over (tau1, tau2, tau3,
    l_u, l_h, l_a) maximizing l_u + l_h + l_a.
    """
    if scheme == "joint-binary":
        return max(capacity(p, m) for m in BINARY_MODES)
    # scipy is imported only once the measurement is over, so it adds
    # nothing to set-up time or peak memory
    from scipy.optimize import linprog

    r01 = rate_user_helper(p, p.P_u_max)
    r0 = rate_user_ap(p, p.P_u_max)
    r1 = rate_helper_ap(p, p.P_h_max)
    A_ub = [
        [-r01, 0.0, 0.0, 0.0, 1.0, 0.0],                   # l_h <= tau1 r01
        [0.0, -r0, -r1, 0.0, 0.0, 1.0],                    # relay sum rate
        [0.0, -r01, 0.0, 0.0, 0.0, 1.0],                   # relay decode rate
        [1.0, 1.0, 1.0, 0.0, 0.0, p.c_a / p.f_a_max],      # block deadline
        [0.0, 0.0, 0.0, p.c_u, 0.0, 0.0],                  # user CPU cap
        [p.f_h_max, 0.0, 0.0, 0.0, p.c_h, 0.0],            # helper CPU cap
    ]
    b_ub = [0.0, 0.0, 0.0, p.T, p.T * p.f_u_max, p.T * p.f_h_max]
    # scale rows and columns: raw coefficients span ~20 decades
    bit_scale = p.T * max(r01, r0, r1, p.f_u_max / p.c_u, p.f_h_max / p.c_h)
    col = np.array([p.T, p.T, p.T, bit_scale, bit_scale, bit_scale])
    A = np.array(A_ub) * col
    norm = np.abs(A).max(axis=1)
    A /= norm[:, None]
    b = np.array(b_ub) / norm
    bounds = [(0.0, None)] * 6
    pinned = SCHEME_PINS[scheme]
    for i, name in enumerate(("l_u", "l_h", "l_a")):
        if name in pinned:
            bounds[3 + i] = (0.0, 0.0)
    if "l_h" in pinned:
        bounds[0] = (0.0, 0.0)
    if "l_a" in pinned:
        bounds[1] = bounds[2] = (0.0, 0.0)
    res = linprog(-np.array([0, 0, 0, 1.0, 1.0, 1.0]), A_ub=A, b_ub=b,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"capacity LP for {scheme}: {res.message}")
    return float(res.x[3:].sum() * col[3])


# -- independent minimizer of the convexified problem -------------------------


def minimize_joint(p) -> float:
    """Least energy of the joint partial-offloading problem, by SLSQP.

    Works on the convexified variables (tau_i, E_i = tau_i P_i, bits),
    scaled to order one, from several starting points; returns the best
    objective whose point is feasible to 1e-7. Shares no code with the
    solver's dual method.
    """
    from scipy.optimize import minimize

    T, L = p.T, p.L
    ku = p.kappa_u * p.c_u**3 / T**2
    kh = p.kappa_h * p.c_h**3
    g01 = p.h01 / (p.gamma_gap * p.sigma1_sq)
    g0, g1 = p.h0 / p.sigma0_sq, p.h1 / p.sigma0_sq
    e_scale = ku * L**3
    p_scale = e_scale / T
    tmin = 1e-12

    def unpack(z):
        t1, t2, t3 = z[0:3] * T
        e1, e2, e3 = z[3:6] * e_scale
        lu, lh, la = z[6:9] * L
        return t1, t2, t3, e1, e2, e3, lu, lh, la

    def objective(z):
        t1, t2, t3, e1, e2, e3, lu, lh, la = unpack(z)
        return (e1 + e2 + e3 + ku * lu**3 + kh * lh**3 / (T - t1) ** 2) / e_scale

    def bits(t, e, g):
        t = max(t, tmin * T)
        return t * p.B * math.log2(1.0 + g * e / t)

    def constraints(z):
        t1, t2, t3, e1, e2, e3, lu, lh, la = unpack(z)
        return np.array([
            (bits(t1, e1, g01) - lh) / L,
            (bits(t2, e2, g0) + bits(t3, e3, g1) - la) / L,
            (bits(t2, e2, g01) - la) / L,
            (T - t1 - t2 - t3 - p.c_a * la / p.f_a_max) / T,
            (t1 * p.P_u_max - e1) / (T * p_scale),
            (t2 * p.P_u_max - e2) / (T * p_scale),
            (t3 * p.P_h_max - e3) / (T * p_scale),
            (T * p.f_u_max - p.c_u * lu) / (T * p.f_u_max),
            ((T - t1) * p.f_h_max - p.c_h * lh) / (T * p.f_h_max),
        ])

    cons = [
        {"type": "ineq", "fun": constraints},
        {"type": "eq", "fun": lambda z: np.array([z[6] + z[7] + z[8] - 1.0])},
    ]
    bounds = [(tmin, 1.0)] * 3 + [(0.0, None)] * 3 + [(0.0, 1.0)] * 3
    best = math.inf
    for shares in ((1 / 3, 1 / 3, 1 / 3), (0.6, 0.3, 0.1), (0.2, 0.4, 0.4)):
        lu, lh, la = shares
        z0 = np.array([0.3, 0.3, 0.2, 0.05, 0.05, 0.05, lu, lh, la])
        res = minimize(objective, z0, method="SLSQP", bounds=bounds,
                       constraints=cons,
                       options={"maxiter": 2000, "ftol": 1e-14})
        z = np.clip(res.x, [b[0] for b in bounds],
                    [b[1] if b[1] is not None else np.inf for b in bounds])
        if constraints(z).min() >= -1e-7 and abs(z[6:9].sum() - 1.0) <= 1e-7:
            best = min(best, float(objective(z)) * e_scale)
    return best


# -- per-operation verdicts ---------------------------------------------------


class Checker:
    """Checks operations; caches capacities and minimizer results by instance
    (`SystemParams` is frozen, so equal instances hash equal)."""

    def __init__(self, kkt_residuals):
        self._kkt_residuals = kkt_residuals
        self._capacity: dict = {}
        self._minimum: dict = {}

    def capacity(self, p, scheme: str) -> float:
        key = (p, scheme)
        if key not in self._capacity:
            self._capacity[key] = capacity(p, scheme)
        return self._capacity[key]

    def minimum(self, p) -> float:
        if p not in self._minimum:
            self._minimum[p] = minimize_joint(p)
        return self._minimum[p]

    def op(self, scheme: str, p, rep, cross_check: bool = False):
        """(reasons the op fails, whether its reported capacity is off)."""
        bad: list[str] = []
        cap = self.capacity(p, scheme)
        mode = rep.mode_label if scheme == "joint-binary" else scheme
        off = False
        if rep.l_max is not None and rep.status != "infeasible":
            expect = self.capacity(p, mode) if mode in SCHEME_PINS else cap
            off = abs(rep.l_max - expect) > CAPACITY_REL_TOL * expect
        if rep.status == "infeasible":
            if p.L <= cap * (1.0 - CAPACITY_REL_TOL):
                bad.append(f"infeasible, but L = {p.L:.6g} <= capacity {cap:.6g}")
            return bad, off
        if rep.status not in ("optimal", "nonconverged"):
            return [f"unknown status {rep.status!r}"], off
        if p.L > cap * (1.0 + CAPACITY_REL_TOL):
            bad.append(f"{rep.status}, but L = {p.L:.6g} > capacity {cap:.6g}")
        if rep.status == "nonconverged":
            return bad + ["nonconverged on a feasible instance"], off

        a = rep.allocation
        if a is None:
            return bad + ["optimal without an allocation"], off
        res = residuals(a, p)
        worst = max(res, key=res.get)
        if res[worst] > FEAS_TOL:
            bad.append(f"infeasible allocation: {worst} residual {res[worst]:.3g}")
        bits = max(p.L, 1.0)
        for name, v in SCHEME_PINS.get(mode, {}).items():
            if abs(getattr(a, name) - v) > FEAS_TOL * bits:
                bad.append(f"{mode} allocation has {name} = {getattr(a, name):.6g}")
        e = energy(a, p)
        if abs(e - rep.energy) > ENERGY_REL_TOL * max(abs(e), 1e-300):
            bad.append(f"reported energy {rep.energy:.12g} != {e:.12g}")
        if scheme == "local":
            closed = p.kappa_u * p.c_u**3 * p.L**3 / p.T**2
            if abs(rep.energy - closed) > LOCAL_CLOSED_FORM_TOL * closed:
                bad.append(f"local energy {rep.energy:.12g} != {closed:.12g}")
        if not rep.duality_gap <= GAP_TOL:
            bad.append(f"optimal with duality gap {rep.duality_gap:.3g}")
        if rep.dual is not None:
            kkt = max(self._kkt_residuals(a, rep.dual, p).values(), default=0.0)
            if not kkt <= KKT_TOL:
                bad.append(f"optimal with KKT residual {kkt:.3g}")
        if cross_check:
            best = self.minimum(p)
            if not abs(rep.energy - best) <= MINIMIZER_REL_TOL * best:
                bad.append(f"energy {rep.energy:.9g} vs scipy minimum {best:.9g}")
        return bad, off


def sweep_properties(rows) -> dict[int, list[str]]:
    """Properties the method must have on one block-length sweep.

    `rows` holds (T, scheme, report) in CSV order. Returns the problems
    per row index: joint-partial at most every feasible scheme,
    joint-binary the least of the three binary modes, and every scheme's
    energy non-increasing in T.
    """
    problems: dict[int, list[str]] = {}
    by_point: dict[float, dict[str, tuple[int, object]]] = {}
    for i, (T, scheme, rep) in enumerate(rows):
        by_point.setdefault(T, {})[scheme] = (i, rep)

    def ok(rep):
        return rep.status != "infeasible"

    for T, reps in by_point.items():
        i_jp, jp = reps["joint-partial"]
        for scheme, (i, rep) in reps.items():
            if ok(jp) and ok(rep) and jp.energy > rep.energy * (1.0 + ORDER_TOL):
                problems.setdefault(i_jp, []).append(
                    f"T={T}: joint-partial {jp.energy:.12g} above {scheme} {rep.energy:.12g}")
        i_jb, jb = reps["joint-binary"]
        modes = [reps[m][1].energy for m in BINARY_MODES if ok(reps[m][1])]
        if ok(jb) and (not modes or abs(jb.energy - min(modes)) > ORDER_TOL * min(modes)):
            problems.setdefault(i_jb, []).append(
                f"T={T}: joint-binary {jb.energy:.12g} is not the least binary mode")
    points = sorted(by_point)
    for scheme in by_point[points[0]]:
        prev = None
        for T in points:
            i, rep = by_point[T][scheme]
            if not ok(rep):
                continue
            if prev is not None and rep.energy > prev * (1.0 + ORDER_TOL):
                problems.setdefault(i, []).append(
                    f"T={T}: {scheme} energy rose from {prev:.12g} to {rep.energy:.12g}")
            prev = rep.energy
    return problems
