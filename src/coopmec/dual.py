"""Dual function of the convexified partial-offloading problem.

The Lagrangian (bit-rate couplings, the block deadline, and the bit
partition dualized) separates into five independent minimizations with
closed or semi-closed forms:

  sub1: (E1, tau1, l_h)  user->helper offload plus helper computing
  sub2: (E2, tau2)       user broadcast slot of the relay phase
  sub3: (E3, tau3)       helper forward slot of the relay phase
  sub4: l_u              local computing at the user
  sub5: l_a              bits for the AP (linear, bang-bang)

Dual prices: lam1/lam2/lam3 >= 0 for the helper-rate and the two relay-rate
constraints, mu1 >= 0 for the deadline, mu2 (free sign) for the bit
partition. The dual function stays bounded below iff the l_a coefficient
lam2 + lam3 + mu1*c_a/f_a_max - mu2 is nonnegative; that inequality is the
one boundary of the dual feasible set beyond the sign constraints.

The linear blocks are bang-bang on the strict sign of their price: a slot
opens iff its marginal price rho_i < 0, and l_a = L iff its coefficient
is < 0. At a zero price both choices give the same value, so the reported
value is the dual function itself, with no tie band; the ellipsoid's deep
cuts rely on that. Which side a tie takes is left to primal recovery.

The subgradient is assembled from the rates the subproblems already
computed at their optimal powers (r01(P1), r0(P2), r01(P2), r1(P3)), so
one evaluation makes four rate calls.

Everything is a pure function; concurrent evaluation at different dual
points is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import LN2, SystemParams, l_u_max, r0, r01, r1

class DualInfeasibleError(ValueError):
    """Dual point outside the feasible set of the dual problem."""


@dataclass(frozen=True, slots=True)
class DualPoint:
    lam1: float
    lam2: float
    lam3: float
    mu1: float
    mu2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.lam1, self.lam2, self.lam3, self.mu1, self.mu2])

    @staticmethod
    def from_array(x: np.ndarray) -> "DualPoint":
        return DualPoint(*(float(v) for v in x))

    def bounded_below_slack(self, p: SystemParams) -> float:
        """Coefficient of l_a in the Lagrangian; negative means unbounded."""
        return self.lam2 + self.lam3 + self.mu1 * p.c_a / p.f_a_max - self.mu2

    def feasible(self, p: SystemParams, tol: float = 0.0) -> bool:
        return (
            self.lam1 >= -tol
            and self.lam2 >= -tol
            and self.lam3 >= -tol
            and self.mu1 >= -tol
            and self.bounded_below_slack(p) >= -tol
        )


# Not frozen: a frozen dataclass sets its fields through
# object.__setattr__, which costs microseconds of each dual evaluation.
# So instances are mutable and unhashable; each evaluation returns a fresh
# one and nothing in the package mutates it.
@dataclass(slots=True)
class SubproblemSolution:
    """Assembled minimizer of the five subproblems at one dual point."""

    tau1: float
    tau2: float
    tau3: float
    l_u: float
    l_h: float
    l_a: float
    P1: float
    P2: float
    P3: float
    M1: float          # helper compute rate l_h/(T - tau1), bits/s


def _clip(x: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, x))


# -- subproblem 1: user->helper offload energy + helper computing ----------


def solve_sub1(d: DualPoint, p: SystemParams) -> dict:
    """Minimize E1 + mu1*tau1 - lam1*tau1*r01(E1/tau1)
    + kappa_h c_h^3 l_h^3/(T-tau1)^2 + (lam1-mu2) l_h
    over 0 <= E1 <= tau1 P_u_max, 0 <= tau1 <= T, c_h l_h <= (T-tau1) f_h_max.

    With E1 = P1*tau1 and l_h = M1*(T-tau1) the objective is
    tau1*price_on + (T-tau1)*price_off, linear in tau1, so tau1* is
    bang-bang on the sign of rho1 = price_on - price_off.
    """
    _require_signs(d)
    P1 = _clip(d.lam1 * p.B / LN2 - 1.0 / p.g01, 0.0, p.P_u_max)
    m_cap = p.f_h_max / p.c_h
    k3 = 3.0 * p.kappa_h * p.c_h**3
    gain = d.mu2 - d.lam1
    M1 = _clip(math.sqrt(gain / k3), 0.0, m_cap) if gain >= 0.0 else 0.0

    rate1 = r01(P1, p)
    price_on = P1 + d.mu1 - d.lam1 * rate1
    price_off = p.kappa_h * p.c_h**3 * M1**3 - gain * M1
    rho1 = price_on - price_off

    tau1 = p.T if rho1 < 0.0 else 0.0
    return {
        "P1": P1,
        "M1": M1,
        "tau1": tau1,
        "l_h": M1 * (p.T - tau1),
        "rho1": rho1,
        "value": tau1 * price_on + (p.T - tau1) * price_off,
        "r01": rate1,
    }


# -- subproblem 2: user broadcast slot --------------------------------------


def solve_sub2(d: DualPoint, p: SystemParams) -> dict:
    """Minimize E2 + mu1*tau2 - lam2*tau2*r0(E2/tau2) - lam3*tau2*r01(E2/tau2)
    over 0 <= E2 <= tau2 P_u_max, 0 <= tau2 <= T.

    The per-second cost phi(P2) = P2 - lam2 r0(P2) - lam3 r01(P2) is convex;
    its stationary point solves u P^2 + v P + w = 0.
    """
    _require_signs(d)
    g0, g01 = p.g0, p.g01
    u = (LN2 / p.B) * g0 * g01
    v = (LN2 / p.B) * (g0 + g01) - (d.lam2 + d.lam3) * g0 * g01
    w = LN2 / p.B - d.lam2 * g0 - d.lam3 * g01

    def phi(P: float, rate_ap: float, rate_h: float) -> float:
        # the per-second cost at power P, given r0(P) and r01(P)
        return P - d.lam2 * rate_ap - d.lam3 * rate_h

    disc = v * v - 4.0 * u * w
    if disc < 0.0:
        # no stationary point: the derivative is single-signed, so the
        # minimum sits at an endpoint of the power box (both rates are 0
        # at zero power)
        Pm = p.P_u_max
        P2 = 0.0 if phi(0.0, 0.0, 0.0) <= phi(Pm, r0(Pm, p), r01(Pm, p)) else Pm
    elif w >= 0.0:
        P2 = 0.0  # derivative already nonnegative at zero power
    else:
        P2 = _clip((math.sqrt(disc) - v) / (2.0 * u), 0.0, p.P_u_max)

    rate_ap, rate_h = r0(P2, p), r01(P2, p)
    rho2 = d.mu1 + phi(P2, rate_ap, rate_h)
    tau2 = p.T if rho2 < 0.0 else 0.0
    return {"P2": P2, "tau2": tau2, "rho2": rho2, "value": tau2 * rho2,
            "r0": rate_ap, "r01": rate_h}


# -- subproblem 3: helper forward slot ---------------------------------------


def solve_sub3(d: DualPoint, p: SystemParams) -> dict:
    """Minimize E3 + mu1*tau3 - lam2*tau3*r1(E3/tau3)
    over 0 <= E3 <= tau3 P_h_max, 0 <= tau3 <= T.
    """
    _require_signs(d)
    P3 = _clip(d.lam2 * p.B / LN2 - 1.0 / p.g1, 0.0, p.P_h_max)
    rate3 = r1(P3, p)
    rho3 = d.mu1 + P3 - d.lam2 * rate3
    tau3 = p.T if rho3 < 0.0 else 0.0
    return {"P3": P3, "tau3": tau3, "rho3": rho3, "value": tau3 * rho3, "r1": rate3}


# -- subproblem 4: local bits -------------------------------------------------


def solve_sub4(d: DualPoint, p: SystemParams) -> float:
    """Minimize kappa_u c_u^3 l_u^3/T^2 - mu2 l_u over c_u l_u <= T f_u_max."""
    if d.mu2 <= 0.0:
        return 0.0
    return _clip(
        p.T * math.sqrt(d.mu2 / (3.0 * p.kappa_u * p.c_u**3)),
        0.0,
        l_u_max(p),
    )


# -- subproblem 5: AP bits ----------------------------------------------------


def solve_sub5(d: DualPoint, p: SystemParams, L: float | None = None) -> float:
    """Minimize (lam2+lam3+mu1 c_a/f_a_max - mu2) l_a over 0 <= l_a <= L.

    Bang-bang on the strict sign of the coefficient: l_a = L iff it is
    negative. A zero coefficient takes l_a = 0 at the same value and
    leaves the split to the primal-recovery step.
    """
    coef = d.bounded_below_slack(p)
    return (p.L if L is None else L) if coef < 0.0 else 0.0


def _require_signs(d: DualPoint) -> None:
    # each subproblem only needs the sign constraints of the prices it
    # uses; the l_a boundedness condition is checked where l_a is free
    if min(d.lam1, d.lam2, d.lam3, d.mu1) < 0.0:
        raise DualInfeasibleError(f"negative dual price: {d}")


# -- the dual function, whole or restricted -----------------------------------
#
# The benchmark schemes are the same problem with a route pinned off: the
# dual shrinks to the prices of the constraints that remain. FULL pins
# nothing.

DUAL_NAMES = ("lam1", "lam2", "lam3", "mu1", "mu2")


@dataclass(frozen=True)
class Restriction:
    """Which routes stay open in a restricted solve.

    helper_path False pins l_h = 0, tau1 = 0 (drops sub1 and lam1);
    relay_path False pins l_a = 0, tau2 = tau3 = 0 (drops sub2/sub3 and
    lam2/lam3).
    """

    helper_path: bool = True
    relay_path: bool = True

    # cached in the instance's own __dict__; the fields are frozen
    @cached_property
    def active_duals(self) -> tuple[str, ...]:
        names = []
        if self.helper_path:
            names.append("lam1")
        if self.relay_path:
            names.extend(["lam2", "lam3"])
        return (*names, "mu1", "mu2")

    @cached_property
    def active_index(self) -> tuple[int, ...]:
        """Positions of the active duals in DUAL_NAMES."""
        return tuple(DUAL_NAMES.index(name) for name in self.active_duals)

    def expand(self, x) -> DualPoint:
        """The dual point whose active duals are x (in active_duals order);
        the pinned ones are 0."""
        vals = [0.0] * len(DUAL_NAMES)
        for i, v in zip(self.active_index, x):
            vals[i] = float(v)
        return DualPoint(*vals)


FULL = Restriction()


# the blocks a restriction pins: their subproblems' minimizers are all zero
_SUB1_OFF = {"P1": 0.0, "M1": 0.0, "tau1": 0.0, "l_h": 0.0, "value": 0.0, "r01": 0.0}
_SUB2_OFF = {"P2": 0.0, "tau2": 0.0, "value": 0.0, "r0": 0.0, "r01": 0.0}
_SUB3_OFF = {"P3": 0.0, "tau3": 0.0, "value": 0.0, "r1": 0.0}


def eval_dual_restricted(
    d: DualPoint, p: SystemParams, rest: Restriction
) -> tuple[float, SubproblemSolution, np.ndarray]:
    """Dual function value, assembled minimizer, and the subgradient.

    `rest` pins blocks of the primal (FULL pins none); the subgradient
    covers the active duals only, in `rest.active_duals` order. Its
    entries are the dualized-constraint residuals at the minimizer, with
    tau*rate(E/tau) taken as 0 at tau = 0.
    """
    if rest.relay_path and d.bounded_below_slack(p) < 0.0:
        raise DualInfeasibleError(f"dual point outside the feasible set: {d}")

    s1 = solve_sub1(d, p) if rest.helper_path else _SUB1_OFF
    if rest.relay_path:
        s2 = solve_sub2(d, p)
        s3 = solve_sub3(d, p)
    else:
        s2, s3 = _SUB2_OFF, _SUB3_OFF
    l_u = solve_sub4(d, p)
    # l_a = 0: pinned with the relay off, and solve_sub5's choice at the
    # nonnegative slack otherwise
    l_a = 0.0

    v4 = p.kappa_u * p.c_u**3 * l_u**3 / p.T**2 - d.mu2 * l_u
    g_value = s1["value"] + s2["value"] + s3["value"] + v4 - d.mu1 * p.T
    g_value += d.mu2 * p.L

    tau1, tau2, tau3, l_h = s1["tau1"], s2["tau2"], s3["tau3"], s1["l_h"]
    # positional, in field order: keywords cost time on every call
    sol = SubproblemSolution(
        tau1, tau2, tau3, l_u, l_h, l_a, s1["P1"], s2["P2"], s3["P3"], s1["M1"])
    # residuals of the dualized constraints, in DUAL_NAMES order
    full_sub = (
        l_h - tau1 * s1["r01"],
        l_a - tau2 * s2["r0"] - tau3 * s3["r1"],
        l_a - tau2 * s2["r01"],
        tau1 + tau2 + tau3 + l_a * p.c_a / p.f_a_max - p.T,
        p.L - l_u - l_h - l_a,
    )
    sub = np.array([full_sub[i] for i in rest.active_index])
    return g_value, sol, sub
