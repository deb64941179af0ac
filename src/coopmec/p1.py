"""Partial-offloading pipeline: capacity check, dual ascent, primal recovery.

solve_p1 runs the full three-route problem; the same machinery with a
route pinned off (see dual.Restriction) powers the comp-partial and
comm-partial benchmark schemes. At L = capacity the answer is the
capacity vertex (model.capacity_point). Below it, KKT solves from the
cold starts of COLD_STARTS answer if they certify, tried in order: the
generic face from the ellipsoid's initial center; with the helper open,
the helper-only face (tau1 open, relay closed, deadline slack); the
generic face again from prices at 1/20 of the dual scales; and with the
relay open, the direct-link face (tau3 closed, lam2 = 0). Else the
ascent stops at the first checkpoint where the KKT system on the face
its recovery shows solves to a certified point, usually the first one.
Each report names the path that gave it (SolveReport.certified_by).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import ellipsoid as ell
from .dual import (
    FULL,
    SUB1_OFF,
    SUB2_OFF,
    SUB3_OFF,
    DualInfeasibleError,
    DualPoint,
    Restriction,
    sub1,
    sub2,
    sub3,
    sub4,
    eval_dual_restricted,
)
from .lp import lp_solve
from .oracle import max_kkt_residual
from .model import (
    LINK_HELPER_AP,
    LINK_USER_AP,
    LINK_USER_HELPER,
    LN2,
    Allocation,
    ConstraintReport,
    SystemParams,
    capacity_point,
    check_feasible,
    constraint_residuals,
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
MAX_HALVINGS = 7  # per Newton step of a face solve; certified ones need <= 6
# the prices of the ellipsoid's initial center, and of the first cold
# start, as a multiple of _dual_scales
CENTER_SCALE = 0.25
# the prices of the second cold start on the generic face, and of the
# direct-link one, as a multiple of _dual_scales. On the 8 generic-face
# acceptance ops that the first two cold starts leave to the ascent, the
# certified optimum's lam and mu2 sit at 0.001-0.13 of the scales (mu1
# lower still), well below CENTER_SCALE; from 1/20, Newton certifies 6
# of them, 4 of figure 4's 10 ascent ops and 66 of 142 on random draws
SCALED_START = 1.0 / 20.0


#: how a report's allocation was obtained (SolveReport.certified_by): the
#: capacity vertex; a cold start (COLD_STARTS); in the ascent, the face
#: solve of a checkpoint or, failing it, the recovery itself; and the
#: closed forms (L = 0, p2's local mode) and p2's 1-D searches
CERTIFIED_BY = ("vertex", "cold-generic", "cold-helper", "cold-scaled", "cold-direct",
                "checkpoint-face", "recovery", "closed-form", "1-d-search")


class RecoveryError(RuntimeError):
    """The recovery LP yields no feasible allocation at the dual point."""


@dataclass(slots=True)
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
    certified_by: str = ""  # one of CERTIFIED_BY; "" with no allocation

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OPTIMAL

    @property
    def feasibility(self) -> ConstraintReport | None:
        """The constraint check of the allocation, computed on demand."""
        a = self.allocation
        return None if a is None else check_feasible(a, a.params)


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
    """Per-coordinate magnitudes bracketing the dual optimum. Measured
    optima sit well inside: on the generic-face acceptance ops that the
    first two cold starts leave to the ascent, lam1-lam3 and mu2 sit at
    0.001-0.13 of their scales and mu1 lower still (SCALED_START)."""
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
    evaluator only when it lies in the dual feasible set (so the
    evaluator's own check of the point never fires here). A feasibility
    cut carries its violation (-x_i for a sign cut, -slack for the l_a
    boundedness cut), so the ellipsoid can cut deep.
    """
    names = rest.active_duals
    ca_f = p.c_a / p.f_a_max
    pinned = len(names) < 5

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
        d = rest.expand(xs) if pinned else DualPoint(*xs)
        if slack_cut is not None:
            # same slack evaluation as the dual module, bit for bit
            slack = d.bounded_below_slack(p)
            if slack < 0.0:
                return ell.CutOracleResult(ell.FEASIBILITY_CUT, slack_cut,
                                           violation=-slack)
        g, _, sub = eval_dual_restricted(d, p, rest)
        return ell.CutOracleResult(ell.OBJECTIVE_CUT, sub, g)

    return oracle


def certify(alloc: Allocation, d: DualPoint | None, dual_bound: float,
            p: SystemParams, label: str) -> SolveReport:
    """The report of an allocation with its certificate: the gap itself
    (energy minus a dual value bounds the distance to the optimum by weak
    duality), the feasibility of the allocation and its KKT residual at
    the dual point d. `optimal` means all three hold. With d None the
    allocation is the only feasible point, and its energy is the bound."""
    energy = total_energy(alloc, p)
    feas = check_feasible(alloc, p)
    gap = _rel_gap(energy, dual_bound)
    holds = (gap <= GAP_TOL and feas.feasible(FEAS_TOL) and (
        d is None or max_kkt_residual(alloc, d, p) <= CHECKPOINT_KKT_TOL))
    return SolveReport(
        status=STATUS_OPTIMAL if holds else STATUS_NONCONVERGED,
        energy=energy, allocation=alloc, dual=d, duality_gap=gap, mode_label=label,
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

    def row(slot_coef, l_a: float = 0.0) -> list[float]:
        r = [slot_coef(slot, P) for slot, P in cols]
        if la_free:
            r.append(l_a)
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
    A_ub += [part, [-v for v in part]]
    b_ub += [rhs, -rhs]

    x = lp_solve(c, A_ub, b_ub, row(lambda s, P: p.T, l_a=p.L))
    if x is None:
        return None

    tau, power = {}, dict(frozen)
    for slot, links in _SLOT_LINKS.items():
        shares = [(P, t) for (s, P), t in zip(cols, x) if s == slot]
        tau[slot] = sum(t for _, t in shares)
        if any(P != frozen[slot] and t > 0.0 for P, t in shares):
            mean_rates = [sum(t * rate(link, P, p) for P, t in shares) / tau[slot]
                          for link in links]
            power[slot] = max(inv_rate_power(link, r, p) for link, r in zip(links, mean_rates))
    l_a = x[-1] if la_free else 0.0
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


def _open_prices(a: Allocation) -> list[int]:
    """The prices on an open route of `a`, as indices into (lam1, lam2,
    lam3, mu1): lam1 with tau1 open, lam2 and lam3 with tau2, mu1 with a
    relay slot. Without one the deadline row is tau1 <= T, slack at any
    point that gives the helper time to compute, so mu1 = 0 there."""
    relay = a.tau2 > 0.0 or a.tau3 > 0.0
    return [k for k, on in enumerate((a.tau1 > 0.0, a.tau2 > 0.0, a.tau2 > 0.0, relay)) if on]


def _priced_rows(d: DualPoint, a: Allocation, p: SystemParams) -> list[int]:
    """The face a checkpoint's recovery `a` shows at d: of the prices on
    an open route, those whose share of the Lagrangian at their row's
    scale outweighs the row's scaled slack at `a`. The recovery LP leaves
    the deadline slack at over-priced duals, so row tightness alone would
    miss mu1."""
    energy = max(total_energy(a, p), 1e-30)
    slack = constraint_residuals(a, p)
    rows = ("helper_rate", "relay_sum_rate", "relay_decode_rate", "deadline")
    scales = (max(p.L, 1.0),) * 3 + (p.T,)
    prices = (d.lam1, d.lam2, d.lam3, d.mu1)
    return [k for k in _open_prices(a) if prices[k] * scales[k] / energy > abs(slack[rows[k]])]


def _face_system(d0: DualPoint, a: Allocation, prices: list[int], p: SystemParams):
    """The KKT system on the face the caller names, started at (d0, a).

    The face: the open slots of `a`, whether l_a > 0, and `prices`, the
    indices into (lam1, lam2, lam3, mu1) of the prices positive there,
    each on an open route (_open_prices). Unknowns z: those prices, mu2,
    the open slots and l_a; equations F: rho_i = 0 per open slot and each
    of those prices' rows and the partition held with equality, at the
    dual module's closed forms sub1-sub4. With l_a > 0, mu2 makes its
    coefficient exactly 0. Other open-route prices are 0, and so is mu1
    off the relay (_open_prices); lam1 on a closed helper keeps d0's
    value, and a closed relay's prices do not enter F (_face_solve prices
    them after Newton). The powers and bits of `a` only size the energy
    that weighs the rho rows. Returns (z, lo, hi, state, jacobian): the
    start, the box, state(z) -> (F, st) and jacobian(st) -> dF/dz at st's z.

    The Jacobian is in closed form. By the envelope theorem (Boyd &
    Vandenberghe, 5.6.3), d rho1/d(lam1, mu1, mu2) = (-r01(P1) - M1, 1, M1),
    d rho2/d(lam2, lam3, mu1) = (-r0(P2), -r01(P2), 1) and
    d rho3/d(lam2, mu1) = (-r1(P3), 1). The rows are linear in the slots
    and l_a, and move with P1(lam1), P3(lam2), M1(mu2 - lam1), l_u(mu2)
    and P2(lam2, lam3), the root of u P^2 + v P + w = 0 (implicit
    differentiation); a clipped closed form has derivative 0.
    """
    T, L, ca_f = p.T, p.L, p.c_a / p.f_a_max
    scales = (max(L, 1.0),) * 3 + (T, max(L, 1.0))
    energy = max(total_energy(a, p), 1e-30)
    slots = [i for i, t in enumerate((a.tau1, a.tau2, a.tau3)) if t > 0.0]
    la_free = bool(a.l_a > 0.0)
    base = [d0.lam1, d0.lam2, d0.lam3, d0.mu1, d0.mu2]
    for k in _open_prices(a) + [3]:  # mu1 too: off the relay its row is slack
        if k not in prices:
            base[k] = 0.0
    n_dual = len(prices) + (not la_free)
    z = np.array([base[k] for k in prices] + [base[4]] * (not la_free)
                 + [(a.tau1, a.tau2, a.tau3)[i] for i in slots] + [a.l_a] * la_free)
    # the box: prices >= 0 (mu2 is free), slots in [0, T], l_a in [0, L]
    lo = np.array([0.0] * len(prices) + [-np.inf] * (not la_free) + [0.0] * (z.size - n_dual))
    hi = np.array([np.inf] * n_dual + [T] * len(slots) + [L] * la_free)
    # F's rows among (rho1, rho2, rho3, the five rows), and their scales;
    # z's columns among (lam1, lam2, lam3, mu1, mu2, tau1, tau2, tau3, l_a),
    # and mu2's slope in each (with l_a > 0, mu2 = lam2 + lam3 + mu1 c_a/f_a_max)
    eqs = slots + [3 + k for k in prices + [4]]
    weight = np.array([T / energy] * len(slots) + [1.0 / scales[k] for k in prices + [4]])
    cols = prices + [4] * (not la_free) + [5 + i for i in slots] + [8] * la_free
    mu2_slope = np.array([la_free * (0.0, 1.0, 1.0, ca_f)[k] for k in prices]
                         + [0.0] * (z.size - len(prices)))

    def state(z):
        z = z.tolist()
        v = list(base)
        for k, x in zip(prices, z):
            v[k] = x
        # the same sum as DualPoint.bounded_below_slack, so l_a's is 0.0
        v[4] = v[1] + v[2] + v[3] * p.c_a / p.f_a_max if la_free else z[len(prices)]
        lam1, lam2, lam3, mu1, mu2 = v
        tau = [0.0, 0.0, 0.0]
        for i, x in zip(slots, z[n_dual:]):
            tau[i] = x
        l_a = z[-1] if la_free else 0.0
        # a closed slot's closed forms are 0
        s1 = sub1(lam1, mu1, mu2, p) if tau[0] > 0.0 else SUB1_OFF
        s2 = sub2(lam2, lam3, mu1, p) if tau[1] > 0.0 else SUB2_OFF
        s3 = sub3(lam2, mu1, p) if tau[2] > 0.0 else SUB3_OFF
        l_u = sub4(mu2, p)
        l_h = s1[1] * (T - tau[0])
        rows = (l_h - tau[0] * s1[2], l_a - tau[1] * s2[1] - tau[2] * s3[1],
                l_a - tau[1] * s2[2], tau[0] + tau[1] + tau[2] + l_a * ca_f - T,
                L - l_u - l_h - l_a)
        rho = (s1[3], s2[3], s3[2])
        F = [rho[i] * T / energy for i in slots] + [rows[k] / scales[k] for k in prices + [4]]
        return np.array(F), (v, tau, l_a, l_h, l_u, s1, s2, s3)

    def jacobian(st):
        (lam1, lam2, lam3, mu1, mu2), (t1, t2, t3), _, _, l_u, s1, s2, s3 = st
        (P1, M1, ra1), (P2, r0_2, r01_2), (P3, r1_3) = s1[:3], s2[:3], s3[:2]
        g0, g01, g1, c = p.g0, p.g01, p.g1, p.B / LN2
        # the rate slopes dr/dP = c g/(1 + g P), times the power's price slope
        dr1 = c * g01 / (1.0 + g01 * P1) * (c if 0.0 < P1 < p.P_u_max else 0.0)
        dr3 = c * g1 / (1.0 + g1 * P3) * (c if 0.0 < P3 < p.P_h_max else 0.0)
        d0_2, d01_2 = c * g0 / (1.0 + g0 * P2), c * g01 / (1.0 + g01 * P2)
        dP2 = (0.0, 0.0)
        if 0.0 < P2 < p.P_u_max:
            den = (2.0 * g0 * g01 * P2 + g0 + g01) / c - (lam2 + lam3) * g0 * g01
            dP2 = (g0 * (1.0 + g01 * P2) / den, g01 * (1.0 + g0 * P2) / den)
        cap_M = p.f_h_max / p.c_h
        dM = (T - t1) / (6.0 * p.kappa_h * p.c_h**3 * M1) if 0.0 < M1 < cap_M else 0.0
        dlu = l_u / (2.0 * mu2) if 0.0 < l_u < l_u_max(p) else 0.0
        G = weight[:, None] * np.array([
            # lam1, lam2, lam3, mu1, mu2, tau1, tau2, tau3, l_a
            [-ra1 - M1, 0.0, 0.0, 1.0, M1, 0.0, 0.0, 0.0, 0.0],
            [0.0, -r0_2, -r01_2, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, -r1_3, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [-dM - t1 * dr1, 0.0, 0.0, 0.0, dM, -M1 - ra1, 0.0, 0.0, 0.0],
            [0.0, -t2 * d0_2 * dP2[0] - t3 * dr3, -t2 * d0_2 * dP2[1], 0.0, 0.0,
             0.0, -r0_2, -r1_3, 1.0],
            [0.0, -t2 * d01_2 * dP2[0], -t2 * d01_2 * dP2[1], 0.0, 0.0, 0.0, -r01_2, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, ca_f],
            [dM, 0.0, 0.0, 0.0, -dlu - dM, M1, 0.0, 0.0, -1.0],
        ])[eqs]
        return G[:, cols] + G[:, 4:5] * mu2_slope

    return z, lo, hi, state, jacobian


def _face_solve(d0: DualPoint, a: Allocation, prices, p: SystemParams, rest: Restriction):
    """The KKT point on the named face (see _face_system), by damped
    Newton from (d0, a): at most 20 steps, each halved at most
    MAX_HALVINGS times until it stays in the box and lowers the largest
    scaled residual, so a start outside Newton's reach fails fast.
    Returns (allocation, prices, dual value), or None unless Newton gets
    within 1e-12 inside the box and the domain.

    Where `rest` opens the relay and the face closes it (tau2 = tau3 =
    l_a = 0), lam2 and lam3 are priced before the dual value is taken
    (_closed_relay_prices), so that the closed slots and l_a stay closed
    at the dual point.
    """
    z, lo, hi, state, jacobian = _face_system(d0, a, prices, p)
    try:
        F, st = state(z)
        norm = np.abs(F).max()
        for _ in range(20):
            step = np.linalg.solve(jacobian(st), F)
            for _ in range(MAX_HALVINGS + 1):
                if np.all((lo <= z - step) & (z - step <= hi)):
                    F_t, st_t = state(z - step)
                    if np.abs(F_t).max() < norm:
                        break
                step = 0.5 * step
            else:
                break
            z, F, st, norm = z - step, F_t, st_t, np.abs(F_t).max()
            if norm <= 1e-15:
                break
        if not norm <= 1e-12:
            return None
        v, tau, l_a, l_h, _, s1, s2, s3 = st
        if rest.relay_path and tau[1] == tau[2] == l_a == 0.0:
            v[1:3] = _closed_relay_prices(v[3], v[4], p)
        d = DualPoint(*v)
        g = eval_dual_restricted(d, p, rest)[0]
    except (np.linalg.LinAlgError, DualInfeasibleError):
        return None
    return Allocation.build(
        p, tau1=tau[0], tau2=tau[1], tau3=tau[2], P1=s1[0], P2=s2[0], P3=s3[0],
        l_u=min(max(p.L - l_h - l_a, 0.0), l_u_max(p)), l_h=l_h, l_a=l_a), d, g


def _closed_relay_prices(mu1: float, mu2: float, p: SystemParams) -> tuple[float, float]:
    """(lam2, lam3) at a point with the relay closed: their sum s = mu2 -
    mu1 c_a/f_a_max makes the l_a coefficient 0, and the split keeps rho2
    and rho3 >= 0 where it can. P2 stays 0 while lam2 g0 + lam3 g01 is
    small, so s goes to the weaker of the two links: to lam2 if g0 < g01,
    up to ln2/(B g1), where P3 would open, and the rest to lam3. The cap
    sits 1e-15 relative below ln2/(B g1): at the cap itself sub3's
    rounding opens P3 on about a fifth of random instances."""
    s = mu2 - mu1 * p.c_a / p.f_a_max
    lam2 = min(s, LN2 / (p.B * p.g1) * (1.0 - 1e-15)) if p.g0 < p.g01 else 0.0
    lam3 = s - lam2
    # the rounding of s - lam2 may leave the coefficient an ulp below 0
    deficit = mu2 - (lam2 + lam3 + mu1 * p.c_a / p.f_a_max)
    return lam2, lam3 + max(deficit, 0.0)


def _generic_face(p: SystemParams, rest: Restriction, scale: float, scales: np.ndarray):
    """(d0, a, prices) on the generic face of `rest`: every slot of an open
    route open, l_a > 0 with the relay, every open-route price positive.
    d0 is `scale` times the scales; each open slot is T/4 at half its
    power cap, l_u = l_h = L/3 and l_a = L/3 with the relay. Powers and
    bits only size the energy that weighs the rho rows (with none, the
    weight is T/1e-30, and Newton rarely certifies). Without the relay,
    the face names lam1 only (_open_prices)."""
    T, third = p.T, p.L / 3.0
    h, r = rest.helper_path, rest.relay_path
    a = Allocation.build(
        p, tau1=0.25 * T * h, tau2=0.25 * T * r, tau3=0.25 * T * r,
        P1=0.5 * p.P_u_max * h, P2=0.5 * p.P_u_max * r, P3=0.5 * p.P_h_max * r,
        l_u=third, l_h=third, l_a=third * r)
    return rest.expand(scale * scales), a, _open_prices(a)


def _cold_start(p: SystemParams, rest: Restriction, scales: np.ndarray):
    """The generic face from the ellipsoid's initial center (CENTER_SCALE
    of the scales). The generic face is the common one, and from here
    Newton certifies 34 of the 50 acceptance ops."""
    return _generic_face(p, rest, CENTER_SCALE, scales)


def _helper_start(p: SystemParams, rest: Restriction, scales: np.ndarray):
    """With the helper open, the helper-only face: tau1 open at T/4 and
    half the power cap, the relay closed, l_u = l_h = L/2, and lam1 the
    one price. Figure 4's comp-partial points, and its joint-partial ones
    from T = 50 ms, sit there. The prices are consistent with that split:
    mu2 = 3 kappa_u c_u^3 (L/2)^2/T^2, the marginal local cost at L/2,
    lam1 = mu2/2 and mu1 = 0 (the deadline is slack). The closed relay's
    prices are set after Newton (_face_solve). None with the helper
    closed."""
    if not rest.helper_path:
        return None
    half = 0.5 * p.L
    mu2 = 3.0 * p.kappa_u * p.c_u**3 * half**2 / p.T**2
    a = Allocation.build(p, tau1=0.25 * p.T, P1=0.5 * p.P_u_max, l_u=half, l_h=half)
    return DualPoint(0.5 * mu2, 0.0, 0.0, 0.0, mu2), a, _open_prices(a)


def _scaled_start(p: SystemParams, rest: Restriction, scales: np.ndarray):
    """The generic face again, from prices at SCALED_START of the scales:
    the optimum's prices mostly sit well below the ellipsoid's center,
    and from there Newton reaches generic faces that the first start
    misses (6 of the 50 acceptance ops)."""
    return _generic_face(p, rest, SCALED_START, scales)


def _direct_start(p: SystemParams, rest: Restriction, scales: np.ndarray):
    """With the relay open, the direct-link face: the _scaled_start point
    with tau3 closed, priced by lam1 (with the helper), lam3 and mu1, and
    lam2 = 0. With lam2 = 0, sub3 prices tau3 at rho3 = mu1 >= 0, so it
    stays closed at the dual point. The AP takes l_a from the
    broadcast slot alone: the sum-rate row is unpriced and the helper's
    decode row (lam3) binds. Acceptance ops #23 and #39, and the strong
    direct link at 0.999 of capacity in joint- and comm-partial, sit
    there; no other start names that face. None with the relay closed."""
    if not rest.relay_path:
        return None
    d0, a, prices = _scaled_start(p, rest, scales)
    return d0, replace(a, tau3=0.0, P3=0.0), [k for k in prices if k != 1]


#: the cold starts _cold_attempt tries, in order, each with the name that
#: a report it certifies carries (SolveReport.certified_by). A start is
#: (p, rest, scales) -> (d0, a, prices) for _face_solve, or None where
#: `rest` closes a route its face needs.
COLD_STARTS = (
    ("cold-generic", _cold_start),
    ("cold-helper", _helper_start),
    ("cold-scaled", _scaled_start),
    ("cold-direct", _direct_start),
)


def _cold_attempt(p: SystemParams, rest: Restriction, label: str, scales) -> SolveReport | None:
    """The report of the first cold face solve that certifies, trying
    COLD_STARTS in order; else None."""
    for name, start in COLD_STARTS:
        begin = start(p, rest, scales)
        face = begin and _face_solve(*begin, p, rest)
        report = face and certify(*face, p, label)
        if report and report.ok:
            report.certified_by = name
            return report
    return None


def solve_restricted(p: SystemParams, rest: Restriction, label: str) -> SolveReport:
    """Dual ascent + recovery for the (possibly pinned) convex problem.

    Assumes the instance is feasible for the restriction; callers do the
    capacity check. The answer is, in order: at L = 0 the zero allocation;
    at capacity, the capacity vertex where it is unique (the one feasible
    point: gap 0.0, no dual, 0 iterations); the first cold KKT solve of
    COLD_STARTS that certifies (_cold_attempt: the generic face, the
    helper-only face with the helper open, the generic face from scaled
    prices, the direct-link face with the relay open), with its dual and
    0 iterations; else one ellipsoid run that maximizes the dual
    and stops on the certificate. Every time its gap bound drops a decade
    (from 1 down), the primal is recovered at the ellipsoid's center, then
    at the best dual point. The KKT solve on the face each recovery shows
    (_priced_rows) is certified against the dual value at its own prices;
    failing that, the recovery is certified against the best dual value.
    The run ends at the first `optimal` report (gap within GAP_TOL,
    feasible, KKT residual within CHECKPOINT_KKT_TOL). Each breakdown of
    the ellipsoid (near capacity) triggers the same check at the best
    point before the restart, and a point the previous check rejected is
    not recovered again. A run that never certifies ends at MAX_ITER with
    the same check at the best point, `nonconverged` unless it holds.
    The report's certified_by names the path (CERTIFIED_BY).
    """
    if p.L == 0.0:
        report = certify(Allocation.zero(p), DualPoint(0, 0, 0, 0, 0), 0.0, p, label)
        report.certified_by = "closed-form"
        return report
    vertex = capacity_point(p, rest.helper_path, rest.relay_path)
    if vertex is not None and p.L >= vertex.l_u + vertex.l_h + vertex.l_a:
        report = certify(vertex, None, total_energy(vertex, p), p, label)
        report.certified_by = "vertex"
        return report
    scales = _dual_scales(p, rest)
    cold = _cold_attempt(p, rest, label, scales)
    if cold is not None:
        return cold

    def report_at(point: np.ndarray, dual_bound: float) -> SolveReport | None:
        # the face solve's report if it certifies, else the recovery's;
        # None if nothing is recovered
        d = rest.expand(point)
        try:
            alloc = recover_primal(d, p, rest)
        except (RecoveryError, DualInfeasibleError):
            return None
        face = _face_solve(d, alloc, _priced_rows(d, alloc, p), p, rest)
        report = face and certify(*face, p, label)
        if report and report.ok:
            report.certified_by = "checkpoint-face"
        else:
            report = certify(alloc, d, dual_bound, p, label)
            report.certified_by = "recovery"
        return report

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

    res = ell.ellipsoid_run(_make_oracle(p, rest), CENTER_SCALE * scales, 8.0 * scales,
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


@within_capacity(lmax_partial, "joint-partial")
def solve_p1(p: SystemParams) -> SolveReport:
    """Optimal joint cooperation with partial offloading.

    The report of solve_restricted with no route pinned: in the common
    case the face solve of its first checkpoint. Returns an infeasible
    report (with the capacity attached) when the task exceeds what the
    block can carry.
    """
    return solve_restricted(p, FULL, "joint-partial")
