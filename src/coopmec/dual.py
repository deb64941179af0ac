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


# -- the closed forms, on floats ---------------------------------------------
#
# Each subproblem is solved once here, from the prices it reads; the
# evaluator, the face solve of p1 and the dict views below all call these.
# Rates go through the model's rate functions.


def _clip(x: float, hi: float) -> float:
    # min(hi, max(0.0, x)) for hi > 0, float for float, without the calls
    return (x if x < hi else hi) if x > 0.0 else 0.0


def sub1(lam1: float, mu1: float, mu2: float, p: SystemParams) -> tuple:
    """(P1, M1, r01(P1), rho1, tau1, value) of subproblem 1: minimize
    E1 + mu1*tau1 - lam1*tau1*r01(E1/tau1)
    + kappa_h c_h^3 l_h^3/(T-tau1)^2 + (lam1-mu2) l_h
    over 0 <= E1 <= tau1 P_u_max, 0 <= tau1 <= T, c_h l_h <= (T-tau1) f_h_max.

    With E1 = P1*tau1 and l_h = M1*(T-tau1) the objective is
    tau1*price_on + (T-tau1)*price_off, linear in tau1, so tau1* is
    bang-bang on the sign of rho1 = price_on - price_off.
    """
    P1 = _clip(lam1 * p.B / LN2 - 1.0 / p.g01, p.P_u_max)
    gain = mu2 - lam1
    ch3 = p.c_h**3
    M1 = _clip(math.sqrt(gain / (3.0 * p.kappa_h * ch3)), p.f_h_max / p.c_h) if gain >= 0.0 else 0.0
    rate1 = r01(P1, p)
    price_on = P1 + mu1 - lam1 * rate1
    price_off = p.kappa_h * ch3 * M1**3 - gain * M1
    rho1 = price_on - price_off
    T = p.T
    tau1 = T if rho1 < 0.0 else 0.0
    return P1, M1, rate1, rho1, tau1, tau1 * price_on + (T - tau1) * price_off


def sub2(lam2: float, lam3: float, mu1: float, p: SystemParams) -> tuple:
    """(P2, r0(P2), r01(P2), rho2, tau2, value) of subproblem 2: minimize
    E2 + mu1*tau2 - lam2*tau2*r0(E2/tau2) - lam3*tau2*r01(E2/tau2)
    over 0 <= E2 <= tau2 P_u_max, 0 <= tau2 <= T.

    The per-second cost phi(P2) = P2 - lam2 r0(P2) - lam3 r01(P2) is convex;
    its stationary point solves u P^2 + v P + w = 0.
    """
    g0, g01, Pm, k = p.g0, p.g01, p.P_u_max, LN2 / p.B
    u = k * g0 * g01
    v = k * (g0 + g01) - (lam2 + lam3) * g0 * g01
    w = k - lam2 * g0 - lam3 * g01
    disc = v * v - 4.0 * u * w
    if disc < 0.0:
        # no stationary point: the derivative is single-signed, so the
        # minimum sits at an endpoint of the power box (phi(0) = 0: both
        # rates are 0 at zero power)
        P2 = 0.0 if 0.0 <= Pm - lam2 * r0(Pm, p) - lam3 * r01(Pm, p) else Pm
    elif w >= 0.0:
        P2 = 0.0  # derivative already nonnegative at zero power
    else:
        P2 = _clip((math.sqrt(disc) - v) / (2.0 * u), Pm)
    rate_ap, rate_h = r0(P2, p), r01(P2, p)
    rho2 = mu1 + (P2 - lam2 * rate_ap - lam3 * rate_h)
    tau2 = p.T if rho2 < 0.0 else 0.0
    return P2, rate_ap, rate_h, rho2, tau2, tau2 * rho2


def sub3(lam2: float, mu1: float, p: SystemParams) -> tuple:
    """(P3, r1(P3), rho3, tau3, value) of subproblem 3: minimize
    E3 + mu1*tau3 - lam2*tau3*r1(E3/tau3)
    over 0 <= E3 <= tau3 P_h_max, 0 <= tau3 <= T.
    """
    P3 = _clip(lam2 * p.B / LN2 - 1.0 / p.g1, p.P_h_max)
    rate3 = r1(P3, p)
    rho3 = mu1 + P3 - lam2 * rate3
    tau3 = p.T if rho3 < 0.0 else 0.0
    return P3, rate3, rho3, tau3, tau3 * rho3


def sub4(mu2: float, p: SystemParams) -> float:
    """l_u of subproblem 4: minimize kappa_u c_u^3 l_u^3/T^2 - mu2 l_u
    over c_u l_u <= T f_u_max."""
    if mu2 <= 0.0:
        return 0.0
    return _clip(p.T * math.sqrt(mu2 / (3.0 * p.kappa_u * p.c_u**3)), l_u_max(p))


# -- the subproblems as dicts, one per dual point ---------------------------


def solve_sub1(d: DualPoint, p: SystemParams) -> dict:
    """Subproblem 1 (see sub1) at d, with l_h = M1 (T - tau1)."""
    _require_signs(d)
    s = dict(zip(("P1", "M1", "r01", "rho1", "tau1", "value"), sub1(d.lam1, d.mu1, d.mu2, p)))
    s["l_h"] = s["M1"] * (p.T - s["tau1"])
    return s


def solve_sub2(d: DualPoint, p: SystemParams) -> dict:
    """Subproblem 2 (see sub2) at d."""
    _require_signs(d)
    return dict(zip(("P2", "r0", "r01", "rho2", "tau2", "value"), sub2(d.lam2, d.lam3, d.mu1, p)))


def solve_sub3(d: DualPoint, p: SystemParams) -> dict:
    """Subproblem 3 (see sub3) at d."""
    _require_signs(d)
    return dict(zip(("P3", "r1", "rho3", "tau3", "value"), sub3(d.lam2, d.mu1, p)))


def solve_sub4(d: DualPoint, p: SystemParams) -> float:
    """Subproblem 4 (see sub4) at d: the local bits l_u."""
    return sub4(d.mu2, p)


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


# the blocks a restriction pins, and the closed slots of a face solve: the
# tuples of sub1/sub2/sub3 with every minimizer zero
SUB1_OFF = SUB2_OFF = (0.0,) * 6
SUB3_OFF = (0.0,) * 5


def eval_dual_restricted(
    d: DualPoint, p: SystemParams, rest: Restriction
) -> tuple[float, SubproblemSolution, np.ndarray]:
    """Dual function value, assembled minimizer, and the subgradient.

    `rest` pins blocks of the primal (FULL pins none); the subgradient
    covers the active duals only, in `rest.active_duals` order. Its
    entries are the dualized-constraint residuals at the minimizer, with
    tau*rate(E/tau) taken as 0 at tau = 0. The closed forms are the float
    kernels sub1-sub4, called once each, and d is checked once: a
    negative price, or with the relay open a negative l_a coefficient,
    raises DualInfeasibleError.
    """
    lam1, lam2, lam3, mu1, mu2 = d.lam1, d.lam2, d.lam3, d.mu1, d.mu2
    if lam1 < 0.0 or lam2 < 0.0 or lam3 < 0.0 or mu1 < 0.0 or (
            rest.relay_path and d.bounded_below_slack(p) < 0.0):
        raise DualInfeasibleError(f"dual point outside the feasible set: {d}")
    P1, M1, r01_1, _, tau1, v1 = sub1(lam1, mu1, mu2, p) if rest.helper_path else SUB1_OFF
    (P2, r0_2, r01_2, _, tau2, v2), (P3, r1_3, _, tau3, v3) = (
        (sub2(lam2, lam3, mu1, p), sub3(lam2, mu1, p)) if rest.relay_path else (SUB2_OFF, SUB3_OFF))
    l_u = sub4(mu2, p)
    # l_a = 0: pinned with the relay off, and solve_sub5's choice at the
    # nonnegative slack otherwise
    l_a = 0.0
    T, L = p.T, p.L
    l_h = M1 * (T - tau1)

    v4 = p.kappa_u * p.c_u**3 * l_u**3 / T**2 - mu2 * l_u
    g_value = (v1 + v2 + v3 + v4 - mu1 * T) + mu2 * L
    # positional, in field order: keywords cost time on every call
    sol = SubproblemSolution(tau1, tau2, tau3, l_u, l_h, l_a, P1, P2, P3, M1)
    # residuals of the dualized constraints, in DUAL_NAMES order
    full_sub = (l_h - tau1 * r01_1, l_a - tau2 * r0_2 - tau3 * r1_3, l_a - tau2 * r01_2,
                tau1 + tau2 + tau3 + l_a * p.c_a / p.f_a_max - T, L - l_u - l_h - l_a)
    idx = rest.active_index
    return g_value, sol, np.array(full_sub if len(idx) == 5 else [full_sub[i] for i in idx])
