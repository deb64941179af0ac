"""Binary offloading: per-mode feasibility and energy, then mode selection.

The whole task runs at exactly one node, giving three modes: local
computing, computation cooperation (all bits to the helper), and
communication cooperation (all bits relayed to the AP). The first has a
closed form; the other two are convex in one slot length, found by
bisection, and the relay mode is certified by one dual evaluation.
"""

from __future__ import annotations

import math
import sys

from .dual import DualPoint, solve_sub2, solve_sub3
from .model import LN2, Allocation, SystemParams, l_a_max, l_h_max, l_u_max
from .model import r0, r01, r1, total_energy
from .p1 import STATUS_INFEASIBLE, STATUS_OPTIMAL, SolveReport, certify, within_capacity

MODE_LOCAL = "local"
MODE_COMP = "comp-binary"
MODE_COMM = "comm-binary"
TIE_REL = 1e-12


@within_capacity(l_u_max, MODE_LOCAL)
def mode_local(p: SystemParams) -> SolveReport:
    """All bits computed at the user over the whole block."""
    a = Allocation.build(p, l_u=p.L)
    return SolveReport(
        status=STATUS_OPTIMAL, energy=total_energy(a, p), allocation=a,
        duality_gap=0.0, mode_label=MODE_LOCAL,
    )


def _comp_objective(tau1: float, p: SystemParams) -> float:
    # offload energy with the rate constraint tight, plus helper computing
    a = 1.0 / p.g01
    return (
        (2.0 ** (p.L / (p.B * tau1)) - 1.0) * tau1 * a
        + p.kappa_h * p.c_h**3 * p.L**3 / (p.T - tau1) ** 2
    )


def _comp_derivative(tau1: float, p: SystemParams) -> float:
    a = 1.0 / p.g01
    x = p.L / (p.B * tau1)
    d_off = a * (2.0**x * (1.0 - x * math.log(2.0)) - 1.0)
    d_cmp = 2.0 * p.kappa_h * p.c_h**3 * p.L**3 / (p.T - tau1) ** 3
    return d_off + d_cmp


@within_capacity(l_h_max, MODE_COMP)
def mode_comp_coop(p: SystemParams) -> SolveReport:
    """All bits offloaded to and computed by the helper.

    With the offload-rate constraint tight, the energy is a univariate
    convex function of the offload slot tau1; its minimizer is found by
    bisection on the derivative over [L/r01(P_u_max), T - c_h L/f_h_max].
    """
    if p.L == 0.0:
        a = Allocation.zero(p)
        return SolveReport(status=STATUS_OPTIMAL, energy=0.0, allocation=a,
                           duality_gap=0.0, mode_label=MODE_COMP)

    # at the capacity lo and hi meet at tau1_b, and within fits' allowance
    # they cross by rounding; the convex objective then takes an end
    lo = p.L / r01(p.P_u_max, p)          # smallest slot with P1 <= P_u_max
    hi = p.T - p.c_h * p.L / p.f_h_max    # leave the helper enough compute time
    if _comp_derivative(lo, p) >= 0.0:
        tau1 = lo
    elif _comp_derivative(hi, p) <= 0.0:
        tau1 = hi
    else:
        a_, b_ = lo, hi
        while b_ - a_ > 1e-12 * p.T:
            mid = 0.5 * (a_ + b_)
            if _comp_derivative(mid, p) < 0.0:
                a_ = mid
            else:
                b_ = mid
        tau1 = 0.5 * (a_ + b_)

    P1 = (2.0 ** (p.L / (p.B * tau1)) - 1.0) / p.g01
    alloc = Allocation.build(p, tau1=tau1, P1=min(P1, p.P_u_max), l_h=p.L)
    energy = _comp_objective(tau1, p)
    return SolveReport(
        status=STATUS_OPTIMAL, energy=energy, allocation=alloc, duality_gap=0.0,
        mode_label=MODE_COMP,
    )


def _relay(tau2: float, D: float, p: SystemParams, final: bool = False):
    """Least relay energy at tau2, tau3 = D - tau2: the powers P2 and P3, the
    rate rows' prices lam2 and lam3, and dE/dtau2 = rho2 - rho3 at them.

    Both slots pay the same energy per marginal bit, 1 + g0 P2 =
    (g0/g1)(1 + g1 P3), with the sum-rate row tight. P2 stays at most P_dir
    and within [max(P_dec, P_fwd), P_u_max]: P_dec and P_dir carry L in tau2
    to the helper and to the AP, and P_fwd leaves P3 = P_h_max.

    The prices solve the first two of the KKT rows a lam2 + b lam3 = c that
    hold at the powers: P2's, P3's, rho2 = rho3 (two open slots, only in
    the `final` point, the one certified), and a zero price on a slack
    rate row. At a vertex, where one row is left, they are the least
    prices along it that keep each power at its cap. The `final` point
    takes a power within 1e-9 of its cap (the KKT check's band) to it.
    """
    L, tau3, k, Pu, Ph = p.L, D - tau2, LN2 / p.B, p.P_u_max, p.P_h_max

    def power(rate, g):
        return math.expm1(rate * k) / g

    P_dec, P_dir = power(L / tau2, p.g01), power(L / tau2, p.g0)
    P2, P3 = min(max(P_dec, P_dir), Pu), 0.0
    if tau3 > 0.0:
        x = 2.0 ** ((L / p.B - tau2 * math.log2(p.g0 / p.g1)) / D)  # 1 + g1 P3
        P_fwd = power(max(L - tau3 * r1(Ph, p), 0.0) / tau2, p.g0)
        P2 = min(max(min((p.g0 / p.g1 * x - 1.0) / p.g0, P_dir), P_dec, P_fwd), Pu)
        P3 = Ph if P2 == P_fwd else min(power(max(L - tau2 * r0(P2, p), 0.0) / tau3, p.g1), Ph)
    tol = 1e-9 if final else 0.0
    P2 = Pu if P2 >= Pu * (1.0 - tol) else P2
    P3 = Ph if P3 >= Ph * (1.0 - tol) else P3

    def p2_row(P):
        return 1.0 / (k * (P + 1.0 / p.g0)), 1.0 / (k * (P + 1.0 / p.g01)), 1.0

    def solve(r, s):  # None for parallel rows
        det = r[0] * s[1] - r[1] * s[0]
        if det != 0.0:
            return (r[2] * s[1] - r[1] * s[2]) / det, (r[0] * s[2] - r[2] * s[0]) / det

    rows = [p2_row(P2)] if P2 < Pu else []
    if tau3 > 0.0 and 0.0 < P3 < Ph:
        rows.append((1.0, 0.0, k * (P3 + 1.0 / p.g1)))  # P3's row
    if final and tau3 > 0.0:
        rows.append((r0(P2, p) - r1(P3, p), r01(P2, p), P2 - P3))  # rho2 = rho3
    if P2 > P_dec * (1.0 + tol):
        rows.append((0.0, 1.0, 0.0))  # the decode row is slack
    if P3 == 0.0 and P2 > P_dir * (1.0 + tol):
        rows.append((1.0, 0.0, 0.0))  # the sum-rate row is slack
    sol = solve(*rows[:2]) if len(rows) > 1 else None
    if sol is None:
        # P2's and P3's rows at the caps; at tau3 = 0, rho3 >= rho2 there
        # keeps the forward slot shut
        caps = [p2_row(Pu), (1.0, 0.0, k * (Ph + 1.0 / p.g1)),
                (r0(Pu, p) - r1(Ph, p), 0.0, Pu - Ph)]
        sols = [solve(rows[0] if rows else caps[1], cap) for cap in caps]
        sol = max((x for x in sols if x is not None), key=sum)
    lam2, lam3 = max(sol[0], 0.0), max(sol[1], 0.0)
    if tau3 <= 0.0 and not final:  # the forward power lam2 calls for
        P3 = min(max(lam2 / k - 1.0 / p.g1, 0.0), Ph)
    return P2, P3, lam2, lam3, P2 - P3 - lam2 * (r0(P2, p) - r1(P3, p)) - lam3 * r01(P2, p)


@within_capacity(l_a_max, MODE_COMM)
def mode_comm_coop(p: SystemParams) -> SolveReport:
    """All bits relayed to the AP through the helper.

    With the deadline tight, tau3 = D - tau2 (D = T - c_a L/f_a_max) and the
    energy is convex in tau2 (_relay), so bisection on its derivative over
    the tau2 the caps allow finds the minimizer. Its prices, with mu1 from
    rho3 = 0 (rho2 = 0 at tau3 = 0), give the dual value that certifies it:
    g = sub2 + sub3 + (lam2 + lam3) L + mu1 (L c_a/f_a_max - T).
    """
    d, alloc = DualPoint(0.0, 0.0, 0.0, 0.0, 0.0), Allocation.zero(p)
    if p.L > 0.0:
        L, D = p.L, p.T - p.c_a * p.L / p.f_a_max
        b, c = r0(p.P_u_max, p), r1(p.P_h_max, p)
        lo, hi = L / r01(p.P_u_max, p), D  # the decode row at P_u_max
        if b != c:  # the sum-rate row at both caps bounds tau2 from one side
            t = (L - D * c) / (b - c)
            lo, hi = (max(lo, t), hi) if b > c else (lo, min(hi, t))
        m = 0.5 * (lo + hi)
        while lo < m < hi:
            lo, hi = (m, hi) if _relay(m, D, p)[4] < 0.0 else (lo, m)
            m = 0.5 * (lo + hi)
        tau2 = D if D - m <= 1e-12 * p.T else m  # a forward slot that short closes
        P2, P3, lam2, lam3, _ = _relay(tau2, D, p, final=True)
        mu1 = lam2 * r1(P3, p) - P3 if tau2 < D else lam2 * r0(P2, p) + lam3 * r01(P2, p) - P2
        d = DualPoint(0.0, lam2, lam3, max(mu1, 0.0), 0.0)
        alloc = Allocation.build(p, tau2=tau2, tau3=D - tau2, P2=P2, P3=P3, l_a=L)
    terms = (solve_sub2(d, p)["value"], solve_sub3(d, p)["value"], (d.lam2 + d.lam3) * p.L,
             d.mu1 * (p.L * p.c_a / p.f_a_max - p.T))
    # a dual value bounds the optimum from below: less 8 eps of its terms'
    # magnitudes, no gap is reported finer than the rounding of its sum
    g = sum(terms) - 8.0 * sys.float_info.epsilon * sum(map(abs, terms))
    return certify(alloc, d, g, p, MODE_COMM)


def solve_p2(p: SystemParams) -> SolveReport:
    """Pick the feasible binary mode with the least energy."""
    reports = [mode_local(p), mode_comp_coop(p), mode_comm_coop(p)]
    feasible = [r for r in reports if r.status != STATUS_INFEASIBLE]
    if not feasible:
        # L_max2 is the largest of the three modes' capacities
        return SolveReport(status=STATUS_INFEASIBLE,
                           l_max=max(r.l_max for r in reports),
                           mode_label="joint-binary")
    best = feasible[0]
    for r in feasible[1:]:
        if r.energy < best.energy * (1.0 - TIE_REL):
            best = r
        # ties keep the earlier mode: fewer transmissions win
    return best
