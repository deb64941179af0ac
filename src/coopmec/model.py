"""Domain model of the three-node cooperation system.

User, helper, and access point (AP) share one block of duration T to get
L task input-bits executed: the user computes l_u bits locally over the
whole block, ships l_h bits to the helper in slot tau1 (the helper then
computes them in the remaining T - tau1), and relays l_a bits to the AP
through the helper in slots tau2/tau3, with the AP executing them at full
speed in slot tau4.

Everything here is a pure function over immutable value types, in strict
SI units (watts, joules, seconds, Hz, bits). dBm/dB enter only through
the explicit conversion helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

LN2 = math.log(2.0)

#: links of the three-node system; the user->helper hop carries the MCS gap.
LINK_USER_HELPER = "user_helper"
LINK_USER_AP = "user_ap"
LINK_HELPER_AP = "helper_ap"


class InfeasibleWindowError(ValueError):
    """Compute load assigned to a window of nonpositive duration."""


def dbm_to_watts(x: float) -> float:
    """Convert a power level in dBm to watts."""
    return 10.0 ** (x / 10.0) * 1e-3


def db_to_linear(x: float) -> float:
    """Convert a dB ratio to a linear ratio."""
    return 10.0 ** (x / 10.0)


@dataclass(frozen=True)
class Geometry:
    """Node placement on a line, plus the distance-power-law channel model.

    The helper sits between the user and the AP, so the helper->AP
    distance is d_user_ap - d_user_helper.
    """

    d_user_ap: float = 250.0
    d_user_helper: float = 120.0
    beta0: float = 1e-6        # gain at the reference distance (linear)
    d0: float = 10.0           # reference distance, meters
    zeta: float = 3.0          # pathloss exponent

    def __post_init__(self):
        if not 0.0 < self.d_user_helper < self.d_user_ap:
            raise ValueError(
                "helper must lie strictly between user and AP: "
                f"0 < {self.d_user_helper} < {self.d_user_ap} fails"
            )
        if self.zeta <= 0.0 or self.beta0 <= 0.0 or self.d0 <= 0.0:
            raise ValueError("beta0, d0, zeta must be positive")

    @property
    def d_helper_ap(self) -> float:
        return self.d_user_ap - self.d_user_helper


def pathloss(d: float, g: Geometry) -> float:
    """Linear channel power gain at distance d meters."""
    if d <= 0.0:
        raise ValueError(f"distance must be positive, got {d}")
    return g.beta0 * (d / g.d0) ** (-g.zeta)


@dataclass(frozen=True)
class SystemParams:
    """All physical and compute constants of one solver instance."""

    L: float                   # task size, bits
    T: float                   # block duration, s
    B: float                   # bandwidth, Hz
    h01: float                 # user->helper channel power gain (linear)
    h0: float                  # user->AP channel power gain
    h1: float                  # helper->AP channel power gain
    sigma0_sq: float           # noise power at the AP, W
    sigma1_sq: float           # noise power at the helper, W
    P_u_max: float             # user transmit power cap, W
    P_h_max: float             # helper transmit power cap, W
    c_u: float                 # CPU cycles per bit at the user
    c_h: float                 # CPU cycles per bit at the helper
    c_a: float                 # CPU cycles per bit at the AP
    kappa_u: float             # user effective capacitance, J s^2 / cycle^3
    kappa_h: float             # helper effective capacitance
    f_u_max: float             # user CPU frequency cap, Hz
    f_h_max: float             # helper CPU frequency cap, Hz
    f_a_max: float             # AP CPU frequency cap, Hz
    gamma_gap: float = 1.0     # MCS gap from capacity, >= 1

    def __post_init__(self):
        if self.L < 0.0:
            raise ValueError(f"task size must be nonnegative, got L={self.L}")
        if self.gamma_gap < 1.0:
            raise ValueError(f"MCS gap must be >= 1, got {self.gamma_gap}")
        positive = (
            "T B h01 h0 h1 sigma0_sq sigma1_sq P_u_max P_h_max "
            "c_u c_h c_a kappa_u kappa_h f_u_max f_h_max f_a_max"
        ).split()
        for name in positive:
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and positive, got {v}")

    # effective SNR-per-watt slopes; the user->helper hop pays the MCS gap.
    # Cached in the instance's own __dict__ (the fields are frozen), so
    # dataclasses.replace builds an instance that computes its own.
    @cached_property
    def g01(self) -> float:
        return self.h01 / (self.gamma_gap * self.sigma1_sq)

    @cached_property
    def g0(self) -> float:
        return self.h0 / self.sigma0_sq

    @cached_property
    def g1(self) -> float:
        return self.h1 / self.sigma0_sq

    def snr_slope(self, link: str) -> float:
        if link == LINK_USER_HELPER:
            return self.g01
        if link == LINK_USER_AP:
            return self.g0
        if link == LINK_HELPER_AP:
            return self.g1
        raise ValueError(f"unknown link {link!r}")


def rate(link: str, P: float, p: SystemParams) -> float:
    """Achievable rate in bits/s of one hop at transmit power P watts.

    Shannon-type with the per-link SNR slope; concave and nondecreasing
    in P, and exactly 0 at P = 0.
    """
    return _hop_rate(P, p.snr_slope(link), p)


def _hop_rate(P: float, slope: float, p: SystemParams) -> float:
    if P < 0.0:
        raise ValueError(f"power must be nonnegative, got {P}")
    return p.B * math.log2(1.0 + P * slope)


def inv_rate_power(link: str, r: float, p: SystemParams) -> float:
    """Transmit power in watts needed to sustain r bits/s on a hop."""
    if r <= 0.0:
        return 0.0
    return (2.0 ** (r / p.B) - 1.0) / p.snr_slope(link)


# the three hops' rates, without rate()'s link dispatch
def r01(P: float, p: SystemParams) -> float:
    return _hop_rate(P, p.g01, p)


def r0(P: float, p: SystemParams) -> float:
    return _hop_rate(P, p.g0, p)


def r1(P: float, p: SystemParams) -> float:
    return _hop_rate(P, p.g1, p)


# -- computation capacities -------------------------------------------------
# At capacity every transmitter runs at its power cap, so the rate rows are
# linear in the slots, and each capacity LP has a closed form.


def fits(L: float, capacity: float) -> bool:
    """Whether L bits fit in `capacity`, allowing 1e-12 relative above it
    for the rounding of a task set to the capacity."""
    return L <= capacity * (1.0 + 1e-12)


def l_u_max(p: SystemParams) -> float:
    return p.T * p.f_u_max / p.c_u


def _tau1_b(p: SystemParams) -> float:
    return p.T * p.f_h_max / (p.c_h * r01(p.P_u_max, p) + p.f_h_max)


def l_h_max(p: SystemParams) -> float:
    return _tau1_b(p) * r01(p.P_u_max, p)


def _ap_route(p: SystemParams):
    # rho_a: AP bits per second of the time the relay and the AP CPU share,
    # the route that attains it ("decode" for a <= b, "direct", "relay",
    # or None where the last two tie), and a, b, c
    a, b, c = r01(p.P_u_max, p), r0(p.P_u_max, p), r1(p.P_h_max, p)
    k = p.c_a / p.f_a_max
    if a <= b:
        return a / (1.0 + k * a), "decode", a, b, c
    direct = b / (1.0 + k * b)
    relay = a / (1.0 + (a - b) / c + k * a) if c > 0.0 else 0.0
    route = "direct" if direct > relay else "relay" if relay > direct else None
    return max(direct, relay), route, a, b, c


def l_a_max(p: SystemParams) -> float:
    return p.T * _ap_route(p)[0]


@dataclass(frozen=True)
class BinaryCapacity:
    l_u_max: float
    l_h_max: float
    l_a_max: float
    L_max2: float


def lmax_binary(p: SystemParams) -> BinaryCapacity:
    """Largest supportable task per binary mode, and their maximum.

    Local: l_u_max = T f_u_max/c_u. Helper: l_h_max = tau1_b r01(P_u_max),
    where tau1_b = T f_h_max/(c_h r01(P_u_max) + f_h_max) is the offload
    slot after which the helper, at its cap, computes the bits by T.
    AP: l_a_max = T rho_a. With a = r01(P_u_max), b = r0(P_u_max),
    c = r1(P_h_max) and k = c_a/f_a_max, the helper decodes every AP bit
    in tau2, so rho_a = a/(1 + k a) if a <= b. Otherwise rho_a is the
    better of the direct link alone, b/(1 + k b), and the relay with both
    decode-and-forward rows tight, a/(1 + (a - b)/c + k a).
    """
    cap = (l_u_max(p), l_h_max(p), l_a_max(p))
    return BinaryCapacity(*cap, L_max2=max(cap))


def lmax_partial(p: SystemParams) -> float:
    """Computation capacity under partial offloading (bits per block).

    With both CPUs at their caps and AP bits at rho_a (see lmax_binary)
    over the time after the offload slot tau1, the capacity is
    l_u_max + min(tau1 r01, (T - tau1) f_h_max/c_h) + (T - tau1) rho_a.
    Its slope in tau1 is r01(P_u_max) - rho_a > 0 below tau1_b and
    negative above, so tau1 = tau1_b: l_u_max + l_h_max + (T - tau1_b) rho_a.
    """
    return l_u_max(p) + l_h_max(p) + (p.T - _tau1_b(p)) * _ap_route(p)[0]


def capacity_point(p: SystemParams, helper: bool = True, relay: bool = True):
    """The one allocation that carries the open routes' capacity, its bits
    summing float for float to that capacity: l_u = l_u_max; with the
    helper tau1 = tau1_b, l_h = l_h_max; with the relay, the rho_a route
    over T - tau1; each used slot at its power cap. None if not unique: a
    tie of direct link and relay, or r01(P_u_max) = rho_a with the helper.
    A dead route closes first: the helper when r01(P_u_max) = 0, the relay
    when rho_a = 0. The point is still the optimum then: at capacity every
    feasible point has l_u = l_u_max, and a dead route carries no bits, so
    no feasible point costs less."""
    rho, route, a, b, c = _ap_route(p) if relay else (0.0, "decode", 0.0, 0.0, 0.0)
    helper = helper and r01(p.P_u_max, p) > 0.0
    if (route is None and rho > 0.0) or (helper and r01(p.P_u_max, p) == rho):
        return None
    tau1 = _tau1_b(p) if helper else 0.0
    l_a = (p.T - tau1) * rho
    tau2 = l_a / (b if route == "direct" else a) if l_a > 0.0 else 0.0
    tau3 = (l_a - tau2 * b) / c if route == "relay" and l_a > 0.0 else 0.0
    return Allocation.build(
        p, tau1=tau1, tau2=tau2, tau3=tau3, P1=p.P_u_max * (tau1 > 0.0),
        P2=p.P_u_max * (tau2 > 0.0), P3=p.P_h_max * (tau3 > 0.0),
        l_u=l_u_max(p), l_h=l_h_max(p) if helper else 0.0, l_a=l_a)


def local_compute_energy(l: float, window: float, kappa: float, c: float) -> float:
    """Energy in joules to compute l bits in `window` seconds.

    The optimal schedule runs all c*l cycles at the constant frequency
    c*l/window, giving kappa * c^3 * l^3 / window^2. Zero bits cost
    nothing regardless of the window.
    """
    if l < 0.0:
        raise ValueError(f"bits must be nonnegative, got {l}")
    if l == 0.0:
        return 0.0
    if window <= 0.0:
        raise InfeasibleWindowError(
            f"cannot compute {l} bits in a window of {window} s"
        )
    return kappa * c**3 * l**3 / window**2


@dataclass(frozen=True, slots=True)
class Allocation:
    """A complete primal point: the params it was built for, the slots,
    powers and bit partition.

    tau4 = c_a*l_a/f_a_max, E_i = tau_i*P_i, f_u = c_u*l_u/T and
    f_h = c_h*l_h/(T-tau1) (0 when l_h = 0) are derived, as properties
    computed on demand from these fields, so a kept allocation stores
    only its own ten. Allocation.build(p, **fields) is the constructor;
    a field left out is 0.
    """

    params: SystemParams = field(repr=False)
    tau1: float = 0.0
    tau2: float = 0.0
    tau3: float = 0.0
    P1: float = 0.0
    P2: float = 0.0
    P3: float = 0.0
    l_u: float = 0.0
    l_h: float = 0.0
    l_a: float = 0.0

    @staticmethod
    def build(p: SystemParams, **fields: float) -> "Allocation":
        return Allocation(p, **fields)

    @staticmethod
    def zero(p: SystemParams) -> "Allocation":
        return Allocation.build(p)

    @property
    def tau4(self) -> float:
        return self.params.c_a * self.l_a / self.params.f_a_max

    @property
    def E1(self) -> float:
        return self.tau1 * self.P1

    @property
    def E2(self) -> float:
        return self.tau2 * self.P2

    @property
    def E3(self) -> float:
        return self.tau3 * self.P3

    @property
    def f_u(self) -> float:
        return self.params.c_u * self.l_u / self.params.T

    @property
    def f_h(self) -> float:
        window_h = self.params.T - self.tau1
        return self.params.c_h * self.l_h / window_h if self.l_h > 0.0 and window_h > 0.0 else 0.0


def total_energy(a: Allocation, p: SystemParams) -> float:
    """Total user+helper energy: both compute terms plus the three offloads."""
    e = a.E1 + a.E2 + a.E3
    e += local_compute_energy(a.l_u, p.T, p.kappa_u, p.c_u)
    e += local_compute_energy(a.l_h, p.T - a.tau1, p.kappa_h, p.c_h)
    return e


@dataclass(frozen=True, slots=True)
class ConstraintReport:
    """The largest violation of any partial-offloading constraint at an
    allocation: max_violation, the largest positive residual (0 when all
    hold). The residuals are recomputed on demand (constraint_residuals).
    """

    allocation: Allocation
    params: SystemParams
    max_violation: float

    @property
    def residuals(self) -> dict[str, float]:
        return constraint_residuals(self.allocation, self.params)

    def feasible(self, tol: float = 1e-9) -> bool:
        return self.max_violation <= tol


def check_feasible(a: Allocation, p: SystemParams) -> ConstraintReport:
    """Evaluate every constraint of the partial-offloading problem at `a`."""
    return ConstraintReport(a, p, max(0.0, max(constraint_residuals(a, p).values())))


def constraint_residuals(a: Allocation, p: SystemParams) -> dict[str, float]:
    """Signed residuals of every partial-offloading constraint at `a`: a
    residual is positive iff the constraint is violated; bit balance is an
    equality and contributes |residual|.

    Residuals are normalized by natural scales (L for bit constraints, T
    for time, the caps for powers and frequencies) so one tolerance works
    across the ~30 orders of magnitude the raw quantities span.
    """
    bit_scale = max(p.L, 1.0)
    res: dict[str, float] = {}

    res["bit_partition"] = abs(a.l_u + a.l_h + a.l_a - p.L) / bit_scale
    res["deadline"] = (a.tau1 + a.tau2 + a.tau3 + a.tau4 - p.T) / p.T
    res["helper_rate"] = (a.l_h - a.tau1 * r01(a.P1, p)) / bit_scale
    res["relay_sum_rate"] = (
        a.l_a - a.tau2 * r0(a.P2, p) - a.tau3 * r1(a.P3, p)
    ) / bit_scale
    res["relay_decode_rate"] = (a.l_a - a.tau2 * r01(a.P2, p)) / bit_scale
    res["P1_bounds"] = max(-a.P1, a.P1 - p.P_u_max) / p.P_u_max
    res["P2_bounds"] = max(-a.P2, a.P2 - p.P_u_max) / p.P_u_max
    res["P3_bounds"] = max(-a.P3, a.P3 - p.P_h_max) / p.P_h_max
    for name, v in (("tau1_bounds", a.tau1), ("tau2_bounds", a.tau2),
                    ("tau3_bounds", a.tau3), ("tau4_bounds", a.tau4)):
        res[name] = max(-v, v - p.T) / p.T
    for name, v in (("l_u_nonneg", a.l_u), ("l_h_nonneg", a.l_h), ("l_a_nonneg", a.l_a)):
        res[name] = -v / bit_scale
    res["f_u_cap"] = (a.f_u - p.f_u_max) / p.f_u_max
    res["f_h_cap"] = (a.f_h - p.f_h_max) / p.f_h_max
    return res
