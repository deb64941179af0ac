"""Binary offloading: per-mode feasibility and energy, then mode selection.

The whole task runs at exactly one node, giving three modes: local
computing, computation cooperation (all bits to the helper), and
communication cooperation (all bits relayed to the AP). The first two
have closed/1-D forms; the third reuses the dual pipeline with the local
and helper blocks pinned.
"""

from __future__ import annotations

import math

from .dual import Restriction
from .model import Allocation, SystemParams, check_feasible, l_a_max, l_h_max, l_u_max, r01
from .model import BinaryCapacity, lmax_binary  # noqa: F401 (the capacities' old home)
from .p1 import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    SolveReport,
    solve_restricted,
    within_capacity,
)

MODE_LOCAL = "local"
MODE_COMP = "comp-binary"
MODE_COMM = "comm-binary"

#: equal energies prefer fewer transmissions: local, then helper, then AP
MODE_PREFERENCE = (MODE_LOCAL, MODE_COMP, MODE_COMM)
TIE_REL = 1e-12


@within_capacity(l_u_max, MODE_LOCAL)
def mode_local(p: SystemParams) -> SolveReport:
    """All bits computed at the user over the whole block."""
    a = Allocation.build(p, l_u=p.L)
    energy = p.kappa_u * p.c_u**3 * p.L**3 / p.T**2
    return SolveReport(
        status=STATUS_OPTIMAL, energy=energy, allocation=a, duality_gap=0.0,
        mode_label=MODE_LOCAL, feasibility=check_feasible(a, p),
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
                           duality_gap=0.0, mode_label=MODE_COMP,
                           feasibility=check_feasible(a, p))

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
        mode_label=MODE_COMP, feasibility=check_feasible(alloc, p),
    )


@within_capacity(l_a_max, MODE_COMM)
def mode_comm_coop(p: SystemParams) -> SolveReport:
    """All bits relayed to the AP through the helper.

    Same dual/ellipsoid pipeline as the partial case, restricted to the
    two relay slots with l_a pinned to L and the AP execution slot
    reserved out of the deadline.
    """
    rest = Restriction(helper_path=False, local_bits=False, l_a_pinned=p.L)
    return solve_restricted(p, rest, MODE_COMM)


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
