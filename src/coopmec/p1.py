"""Partial-offloading pipeline: capacity check, dual ascent, primal recovery.

solve_p1 runs the full three-route problem; the same machinery with a
route pinned off (see dual.Restriction) powers the comp-partial and
comm-partial benchmark schemes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import ellipsoid as ell
from .dual import (
    FULL,
    DualInfeasibleError,
    DualPoint,
    Restriction,
    eval_dual_restricted,
)
from .lp import OPTIMAL, LpProblem, lp_solve
from .oracle import max_kkt_residual
from .model import (
    LINK_HELPER_AP,
    LINK_USER_AP,
    LINK_USER_HELPER,
    LN2,
    Allocation,
    ConstraintReport,
    SystemParams,
    check_feasible,
    fits,
    inv_rate_power,
    l_u_max,
    lmax_partial,
    r0,
    r01,
    r1,
    rate,
    total_energy,
)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_NONCONVERGED = "nonconverged"

GAP_TOL = 1e-5       # relative duality gap declared optimal
FEAS_TOL = 1e-9      # normalized constraint tolerance on recovered points
CHECKPOINT_KKT_TOL = 1e-6  # scaled KKT residual an optimal report must reach
# iteration cap of the ellipsoid run: it stops on the certificate, so the
# cap only ends instances that never certify
MAX_ITER = 5000


class RecoveryError(RuntimeError):
    """The recovery LP yields no feasible allocation at the dual point."""


@dataclass
class SolveReport:
    """Outcome of one solve: energy, allocation, and the dual certificate."""

    status: str
    energy: float = float("nan")
    allocation: Allocation | None = None
    dual: DualPoint | None = None
    duality_gap: float = float("nan")
    iterations: int = 0
    mode_label: str = ""
    l_max: float | None = None
    feasibility: ConstraintReport | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OPTIMAL


def within_capacity(capacity, label: str):
    """Decorate the solver of one scheme with its capacity check: the
    solver runs only when the task fits in `capacity(p)` (model.fits),
    and otherwise the report is infeasible. Either way it carries l_max."""
    def decorate(solve):
        @functools.wraps(solve)
        def solve_within(p: SystemParams) -> SolveReport:
            l_max = capacity(p)
            if fits(p.L, l_max):
                report = solve(p)
            else:
                report = SolveReport(status=STATUS_INFEASIBLE, mode_label=label)
            report.l_max = l_max
            return report
        return solve_within
    return decorate


def _dual_scales(p: SystemParams, rest: Restriction) -> np.ndarray:
    """Per-coordinate magnitudes bracketing the dual optimum."""
    lam1_s = LN2 / p.B * (1.0 / p.g01 + p.P_u_max)
    lam2_s = LN2 / p.B * max(1.0 / p.g0 + p.P_u_max, 1.0 / p.g1 + p.P_h_max)
    lam3_s = LN2 / p.B * (1.0 / p.g01 + p.P_u_max)
    mu2_s = (
        3.0 * (p.kappa_u * p.c_u * p.f_u_max**2 + p.kappa_h * p.c_h * p.f_h_max**2)
        + lam1_s + lam2_s + lam3_s
    )
    r01m, r0m, r1m = r01(p.P_u_max, p), r0(p.P_u_max, p), r1(p.P_h_max, p)
    mu1_s = max(
        lam1_s * r01m + mu2_s * p.f_h_max / p.c_h,
        lam2_s * max(r0m, r1m) + lam3_s * r01m,
    )
    scales = (lam1_s, lam2_s, lam3_s, mu1_s, mu2_s)  # DUAL_NAMES order
    return np.array([scales[i] for i in rest.active_index])


def _make_oracle(p: SystemParams, rest: Restriction):
    """The ellipsoid's cut oracle over the active duals of `rest`.

    Index lists and the constant cut vectors are built once here; a call
    reads the point as Python floats, and the point goes to the dual
    evaluator only when it lies in the dual feasible set. A feasibility
    cut carries its violation (-x_i for a sign cut, -slack for the l_a
    boundedness cut), so the ellipsoid can cut deep.
    """
    names = rest.active_duals
    ca_f = p.c_a / p.f_a_max

    def cut(entries: dict[str, float]) -> np.ndarray:
        v = np.zeros(len(names))
        for name, value in entries.items():
            v[names.index(name)] = value
        v.flags.writeable = False  # shared by every call that returns it
        return v

    # the sign-constrained prices (mu2 is free), each with its cut -e_i
    sign_cuts = [(i, cut({name: -1.0})) for i, name in enumerate(names)
                 if name != "mu2"]
    slack_cut = None
    if rest.relay_path:
        slack_cut = cut({"lam2": -1.0, "lam3": -1.0, "mu1": -ca_f, "mu2": 1.0})

    def oracle(x: np.ndarray) -> ell.CutOracleResult:
        xs = x.tolist()
        for i, e in sign_cuts:
            if xs[i] < 0.0:
                return ell.CutOracleResult(ell.FEASIBILITY_CUT, e, violation=-xs[i])
        d = rest.expand(xs)
        if slack_cut is not None:
            # same slack evaluation as the dual module, bit for bit
            slack = d.bounded_below_slack(p)
            if slack < 0.0:
                return ell.CutOracleResult(ell.FEASIBILITY_CUT, slack_cut,
                                           violation=-slack)
        g, _, sub = eval_dual_restricted(d, p, rest)
        return ell.CutOracleResult(ell.OBJECTIVE_CUT, sub, g)

    return oracle


def certify(alloc: Allocation, d: DualPoint, dual_bound: float, p: SystemParams,
            label: str) -> SolveReport:
    """The report of an allocation with its certificate: the gap itself
    (energy minus a dual value bounds the distance to the optimum by weak
    duality), the feasibility of the allocation and its KKT residual at
    the dual point d. `optimal` means all three hold."""
    energy = total_energy(alloc, p)
    feas = check_feasible(alloc, p)
    gap = _rel_gap(energy, dual_bound)
    holds = (gap <= GAP_TOL and feas.feasible(FEAS_TOL)
             and max_kkt_residual(alloc, d, p) <= CHECKPOINT_KKT_TOL)
    return SolveReport(
        status=STATUS_OPTIMAL if holds else STATUS_NONCONVERGED,
        energy=energy, allocation=alloc, dual=d, duality_gap=gap,
        mode_label=label, feasibility=feas,
    )


def recover_primal(
    d: DualPoint, p: SystemParams, rest: Restriction = FULL
) -> Allocation:
    """Rebuild a feasible allocation from a (near-)optimal dual point.

    The closed-form quantities P_i, M1, l_u are frozen at d, and one
    recovery LP sets the slot durations and l_a (see _recovery_lp). The
    allocation is returned if it is feasible within half of FEAS_TOL, a
    margin under the report's own check; otherwise RecoveryError.
    """
    _, sol, _ = eval_dual_restricted(d, p, rest)
    alloc = _recovery_lp(sol, p, rest)
    if alloc is None or not check_feasible(alloc, p).feasible(0.5 * FEAS_TOL):
        raise RecoveryError("recovery LP infeasible even at the power caps")
    return alloc


#: the links each transmit slot feeds (tau2 broadcasts to the AP and the helper)
_SLOT_LINKS = {
    "tau1": (LINK_USER_HELPER,),
    "tau2": (LINK_USER_AP, LINK_USER_HELPER),
    "tau3": (LINK_HELPER_AP,),
}


def _recovery_lp(sol, p: SystemParams, rest: Restriction) -> Allocation | None:
    """The recovery LP over the slot columns and l_a; None if infeasible.

    Each open slot has a column at its closed-form power and one at its
    power cap. At finite dual accuracy the closed-form powers can leave
    the LP a hair short of feasible; the cap columns price that margin,
    and the LP buys the cheapest one. A slot's two columns merge into one
    slot at the least power that carries the bits of both: the rate is
    concave in power, so that power is at most their mean E/tau and the
    merged energy is at most what the LP paid.
    """
    ca_f = p.c_a / p.f_a_max
    l_u_eff = min(sol.l_u, p.L)  # the subproblem box does not know L
    la_free = rest.relay_path  # l_a is pinned to 0 with the relay off
    M1 = sol.M1
    frozen = {"tau1": sol.P1, "tau2": sol.P2, "tau3": sol.P3}
    cap = {"tau1": p.P_u_max, "tau2": p.P_u_max, "tau3": p.P_h_max}
    open_slots = ["tau1"] * rest.helper_path + ["tau2", "tau3"] * rest.relay_path
    # a slot the dual priced off (P = 0) stays shut: opening it at the cap
    # leaves a sliver of bits on a route the optimum avoids
    cols = [(s, frozen[s]) for s in open_slots]
    cols += [(s, cap[s]) for s in open_slots if frozen[s] > 0.0]
    n = len(cols) + la_free

    def row(slot_coef, l_a: float = 0.0) -> np.ndarray:
        r = np.zeros(n)
        for j, (slot, P) in enumerate(cols):
            r[j] = slot_coef(slot, P)
        if la_free:
            r[-1] = l_a
        return r

    # the helper computes M1 (T - tau1) bits, idle while tau1 runs
    helper_c = p.kappa_h * (p.c_h * M1) ** 3
    c = row(lambda s, P: P - helper_c if s == "tau1" else P)
    A_ub, b_ub = [], []
    if rest.helper_path:
        # M1 (T - tau1) <= tau1 r01(P1)
        A_ub.append(row(lambda s, P: -(M1 + r01(P, p)) * (s == "tau1")))
        b_ub.append(-M1 * p.T)
    if rest.relay_path:
        # l_a <= tau2 r0(P2) + tau3 r1(P3) and l_a <= tau2 r01(P2)
        to_ap = {"tau2": r0, "tau3": r1}
        A_ub.append(row(lambda s, P: -to_ap[s](P, p) if s in to_ap else 0.0, l_a=1.0))
        A_ub.append(row(lambda s, P: -r01(P, p) * (s == "tau2"), l_a=1.0))
        b_ub += [0.0, 0.0]
    A_ub.append(row(lambda s, P: 1.0, l_a=ca_f))      # block deadline
    b_ub.append(p.T)
    # carry the task's bits: l_h + l_a = L - l_u, as two inequality rows
    part = row(lambda s, P: -M1 * (s == "tau1"), l_a=1.0)
    rhs = p.L - l_u_eff - M1 * p.T
    A_ub += [part, -part]
    b_ub += [rhs, -rhs]

    ub = row(lambda s, P: p.T, l_a=p.L)
    lp = lp_solve(LpProblem(c=c, A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                            lb=np.zeros(n), ub=ub))
    if lp.status != OPTIMAL:
        return None

    tau, power = {}, dict(frozen)
    for slot, links in _SLOT_LINKS.items():
        shares = [(P, t) for (s, P), t in zip(cols, lp.x) if s == slot]
        tau[slot] = sum(t for _, t in shares)
        if any(P != frozen[slot] and t > 0.0 for P, t in shares):
            mean_rates = [sum(t * rate(link, P, p) for P, t in shares) / tau[slot]
                          for link in links]
            power[slot] = max(inv_rate_power(link, r, p) for link, r in zip(links, mean_rates))
    l_a = lp.x[-1] if la_free else 0.0
    l_h = M1 * (p.T - tau["tau1"])
    # trim idle slots the LP may have left open at zero objective cost
    if M1 == 0.0:
        tau["tau1"] = 0.0
    if l_a == 0.0:
        tau["tau2"] = tau["tau3"] = 0.0
    elif power["tau3"] == 0.0 and l_a <= tau["tau2"] * r0(power["tau2"], p):
        tau["tau3"] = 0.0
    # exact bit balance: fold the LP's rounding into l_u
    l_u = min(max(p.L - l_h - l_a, 0.0), l_u_max(p))
    return Allocation.build(
        p, tau1=tau["tau1"], tau2=tau["tau2"], tau3=tau["tau3"],
        P1=power["tau1"] if tau["tau1"] > 0.0 else 0.0,
        P2=power["tau2"] if tau["tau2"] > 0.0 else 0.0,
        P3=power["tau3"] if tau["tau3"] > 0.0 else 0.0,
        l_u=l_u, l_h=l_h, l_a=l_a,
    )


def solve_restricted(p: SystemParams, rest: Restriction, label: str) -> SolveReport:
    """Dual ascent + recovery for the (possibly pinned) convex problem.

    Assumes the instance is feasible for the restriction; callers do the
    capacity check. One ellipsoid run maximizes the dual, and it stops on
    the certificate: every time its gap bound drops a decade, the primal
    is recovered at the ellipsoid's center, then at the best dual point,
    and the run ends once an allocation has a duality gap within GAP_TOL
    (against the best dual value), is feasible and has a KKT residual
    within CHECKPOINT_KKT_TOL. Each breakdown of the ellipsoid (near
    capacity, where Slater's condition fails) triggers the same check at
    the best dual point before the restart. A point the previous check
    rejected is not recovered again. An instance that never certifies
    runs to MAX_ITER and is recovered once at the best dual point; that
    report is `optimal` only under the same certificate, and
    `nonconverged` otherwise.
    """
    if p.L == 0.0:
        return certify(Allocation.zero(p), DualPoint(0, 0, 0, 0, 0), 0.0, p, label)

    def report_at(point: np.ndarray, dual_bound: float) -> SolveReport | None:
        # recover the primal at a dual point and certify it, or None
        d = rest.expand(point)
        try:
            alloc = recover_primal(d, p, rest)
        except (RecoveryError, DualInfeasibleError):
            return None
        return certify(alloc, d, dual_bound, p, label)

    certified: list[SolveReport] = []
    rejected: list[np.ndarray] = []  # the points the previous call was given

    def checkpoint(center: np.ndarray, point: np.ndarray, value: float) -> bool:
        # the ascent hands over the same best point until it finds a
        # better value, and a breakdown hands it over as the center too;
        # a recovery already rejected is not repeated
        points = []
        for x in (center, point):
            if not any(np.array_equal(x, y) for y in points + rejected):
                points.append(x)
        for x in points:
            report = report_at(x, value)
            if report is not None and report.ok:
                certified.append(report)
                return True
        rejected[:] = [center, point]
        return False

    scales = _dual_scales(p, rest)
    res = ell.ellipsoid_run(_make_oracle(p, rest), 0.25 * scales, 8.0 * scales,
                            max_iter=MAX_ITER, checkpoint=checkpoint)
    if certified:
        report = certified[0]
    elif res.best_point is None:
        report = None
    else:
        report = report_at(res.best_point, res.best_value)
    if report is None:
        report = SolveReport(status=STATUS_NONCONVERGED, mode_label=label)
    report.iterations = res.iterations
    return report


def _rel_gap(primal: float, dual: float) -> float:
    if abs(primal) < 1e-20 and abs(dual) < 1e-20:
        return 0.0
    return abs(primal - dual) / max(abs(primal), 1e-30)


def _lift_full_dual(d: DualPoint, p: SystemParams) -> DualPoint:
    """Make a restricted-problem dual certificate feasible for the full
    dual: the l_a price floor must cover mu2 even when the relay route is
    unused (the lifted price multiplies a zero slack, so nothing else in
    the certificate moves)."""
    need = d.mu2 - d.mu1 * p.c_a / p.f_a_max - d.lam2 - d.lam3
    if need > 0.0:
        return DualPoint(d.lam1, d.lam2 + need, d.lam3, d.mu1, d.mu2)
    return d


def _polish_inactive_routes(report: SolveReport, p: SystemParams) -> SolveReport:
    """Re-solve under the restriction an unused route suggests.

    When the recovered optimum leaves exactly one of the AP/helper routes
    idle, the same dual machinery on the smaller, better-conditioned
    problem closes the last fraction of the gap; the full-problem dual
    bound keeps certifying the result.
    """
    if report.duality_gap <= 1e-10:
        return report
    a = report.allocation
    bit_eps = 1e-6 * max(p.L, 1.0)
    la_off = a.l_a <= bit_eps
    lh_off = a.l_h <= bit_eps
    if la_off and not lh_off:
        rest = Restriction(relay_path=False)
    elif lh_off and not la_off:
        rest = Restriction(helper_path=False)
    else:
        return report

    sub = solve_restricted(p, rest, report.mode_label)
    if not sub.ok or sub.energy >= report.energy * (1.0 - 1e-12):
        return report
    dual_bound = report.energy * (1.0 - report.duality_gap)
    gap = _rel_gap(sub.energy, dual_bound)
    if gap > GAP_TOL:
        return report
    lifted = _lift_full_dual(sub.dual, p)
    # do not trade a clean certificate for the last decimal of energy
    old_kkt = max_kkt_residual(a, report.dual, p)
    new_kkt = max_kkt_residual(sub.allocation, lifted, p)
    if new_kkt > max(1e-6, old_kkt):
        return report
    return SolveReport(
        status=STATUS_OPTIMAL,
        energy=sub.energy,
        allocation=sub.allocation,
        dual=lifted,
        duality_gap=gap,
        iterations=report.iterations + sub.iterations,
        mode_label=report.mode_label,
        feasibility=sub.feasibility,
    )


@within_capacity(lmax_partial, "joint-partial")
def solve_p1(p: SystemParams) -> SolveReport:
    """Optimal joint cooperation with partial offloading.

    The ascent's certified report is returned as recovered, unless
    exactly one route is idle: _polish_inactive_routes then re-solves
    with that route pinned off and keeps a cheaper certified answer.
    Returns an infeasible report (with the capacity attached) when the
    task exceeds what the block can carry.
    """
    report = solve_restricted(p, FULL, "joint-partial")
    if report.ok:
        report = _polish_inactive_routes(report, p)
    return report
