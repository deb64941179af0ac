from dataclasses import replace

import numpy as np
import pytest

import coopmec.ellipsoid
import coopmec.oracle
from coopmec.dual import solve_sub2, solve_sub3
from coopmec.model import check_feasible, l_a_max, lmax_binary, r01
from coopmec.oracle import comp_coop_grid, max_kkt_residual, oracle_comm_coop
from coopmec.p1 import GAP_TOL, STATUS_INFEASIBLE, solve_p1
from coopmec.p2 import (
    MODE_COMM,
    MODE_COMP,
    MODE_LOCAL,
    mode_comm_coop,
    mode_comp_coop,
    mode_local,
    solve_p2,
)
from conftest import desk_params, random_params
from test_p1 import EDGE_TEMPLATES


def test_lmax_binary_local_closed_form():
    p = desk_params(T=0.05)
    cap = lmax_binary(p)
    assert cap.l_u_max == pytest.approx(1e5, rel=1e-12)


def test_lmax_binary_helper_closed_form():
    # unit-SNR helper channel: r01(P_u_max) = B = 1e6 b/s
    p = desk_params(T=1.0, L=1e5, h01=1e-11)
    cap = lmax_binary(p)
    tau1_b = 1.0 * 3e9 / (1e3 * 1e6 + 3e9)
    assert tau1_b == pytest.approx(0.75)
    assert cap.l_h_max == pytest.approx(7.5e5, rel=1e-9)


def test_lmax_binary_dead_channels():
    p = desk_params(h01=1e-30, h0=1e-30, h1=1e-30)
    cap = lmax_binary(p)
    assert cap.l_h_max < 1.0
    assert cap.l_a_max < 1.0
    assert cap.L_max2 == cap.l_u_max


def test_lmax_binary_is_componentwise_max(p_default):
    cap = lmax_binary(p_default)
    assert cap.L_max2 == max(cap.l_u_max, cap.l_h_max, cap.l_a_max)


def test_mode_local_energy():
    p = desk_params(T=0.05, L=2e4)
    rep = mode_local(p)
    assert rep.ok
    assert rep.energy == pytest.approx(3.2e-3, rel=1e-12)
    assert rep.allocation.l_u == p.L
    assert rep.mode_label == MODE_LOCAL


def test_mode_local_zero_task():
    rep = mode_local(desk_params(L=0.0))
    assert rep.ok and rep.energy == 0.0


def test_mode_local_boundary_infeasible():
    p = desk_params(T=0.05)
    cap = p.T * p.f_u_max / p.c_u
    assert mode_local(desk_params(T=0.05, L=cap)).ok
    rep = mode_local(desk_params(T=0.05, L=cap * 1.0001))
    assert rep.status == STATUS_INFEASIBLE


def test_mode_comp_coop_matches_dense_grid():
    for T in (0.02, 0.035, 0.05):
        p = desk_params(T=T)
        rep = mode_comp_coop(p)
        assert rep.ok
        _, grid_e = comp_coop_grid(p, n=1_000_000)
        assert rep.energy == pytest.approx(grid_e, rel=1e-6)
        assert check_feasible(rep.allocation, p).feasible(1e-9)


def test_mode_comp_coop_stationary_interior():
    from coopmec.p2 import _comp_derivative

    p = desk_params(T=0.05)
    rep = mode_comp_coop(p)
    tau1 = rep.allocation.tau1
    lo = p.L / r01(p.P_u_max, p)
    hi = p.T - p.c_h * p.L / p.f_h_max
    if lo + 1e-9 < tau1 < hi - 1e-9:
        d = _comp_derivative(tau1, p)
        scale = max(abs(_comp_derivative(lo, p)), abs(_comp_derivative(hi, p)))
        assert abs(d) / scale <= 1e-7


def test_mode_comp_coop_cheap_helper_hits_upper_endpoint():
    # negligible compute cost leaves only the offload term, which strictly
    # decreases in tau1: the slot stretches to its upper endpoint
    p = desk_params(T=0.05, kappa_h=1e-40)
    rep = mode_comp_coop(p)
    hi = p.T - p.c_h * p.L / p.f_h_max
    assert rep.allocation.tau1 == pytest.approx(hi, rel=1e-9)


def test_mode_comp_coop_free_channel_limit():
    # an enormous offload channel makes shipping free: the slot collapses
    # toward zero and the energy approaches the helper's pure compute cost
    p = desk_params(T=0.05, h01=1.0)
    rep = mode_comp_coop(p)
    limit = p.kappa_h * p.c_h**3 * p.L**3 / p.T**2
    assert rep.allocation.tau1 < 0.02 * p.T
    assert rep.energy == pytest.approx(limit, rel=5e-2)
    # a weaker channel sits strictly farther from the limit
    worse = mode_comp_coop(desk_params(T=0.05, h01=1e-6))
    assert worse.energy > rep.energy


def test_mode_comp_coop_infeasible():
    p = desk_params(T=0.01, L=1e6)
    rep = mode_comp_coop(p)
    assert rep.status == STATUS_INFEASIBLE
    assert rep.l_max is not None


def test_mode_comp_coop_at_its_capacity(rng):
    # at L = l_h_max the slot bounds L/r01 and T - c_h L/f_h_max meet, and
    # rounding can cross them: comp-binary once reported its own capacity
    # infeasible, on about a third of random draws
    for p in [random_params(rng) for _ in range(20)]:
        for frac in (1.0, 1.0 + 1e-13):
            q = replace(p, L=frac * lmax_binary(p).l_h_max)
            rep = mode_comp_coop(q)
            assert rep.ok
            assert check_feasible(rep.allocation, q).feasible(1e-9)


def test_mode_comm_coop_against_grid_oracle():
    for T in (0.02, 0.03):
        p = desk_params(T=T)
        rep = mode_comm_coop(p)
        assert rep.ok
        ora = oracle_comm_coop(p, budget=2)
        assert ora.feasible
        assert rep.energy == pytest.approx(ora.energy, rel=1e-3)
        a = rep.allocation
        assert a.l_a == p.L and a.l_u == 0.0 and a.l_h == 0.0
        assert a.tau1 == 0.0


def test_mode_comm_coop_decode_constraint_binds():
    # the relay must decode everything it forwards
    p = desk_params(T=0.03)
    rep = mode_comm_coop(p)
    a = rep.allocation
    assert a.tau2 * r01(a.P2, p) >= p.L * (1 - 1e-9)


def test_mode_comm_coop_infeasible():
    p = desk_params(T=0.005, L=1e6)
    rep = mode_comm_coop(p)
    assert rep.status == STATUS_INFEASIBLE


def _comm_dual_value(d, p) -> float:
    """The relay mode's dual function at d, summed from the subproblems:
    sub2 + sub3 + (lam2 + lam3) L + mu1 (L c_a/f_a_max - T)."""
    return (solve_sub2(d, p)["value"] + solve_sub3(d, p)["value"]
            + (d.lam2 + d.lam3) * p.L + d.mu1 * (p.L * p.c_a / p.f_a_max - p.T))


def _at_capacity_fraction(template: str, frac: float):
    p = EDGE_TEMPLATES[template]()
    return replace(p, L=frac * l_a_max(p))


#: the figure-4 sweep points and the capacity-edge instances of perfbench
COMM_INSTANCES = [
    pytest.param(lambda T=T: desk_params(T=T), id=f"fig4-T{1e3 * T:.0f}ms")
    for T in np.linspace(0.01, 0.1, 10)
] + [
    pytest.param(lambda t=t, f=f: _at_capacity_fraction(t, f), id=f"{t}-{f:g}")
    for t in EDGE_TEMPLATES for f in (1.0, 0.999, 1e-6)
]


@pytest.mark.parametrize("make", COMM_INSTANCES)
def test_mode_comm_coop_certificate(make):
    # optimal, within the KKT bound, feasible, and within GAP_TOL of the
    # dual value re-evaluated here from the subproblems at the report's
    # dual point, which stays below the energy (weak duality)
    p = make()
    rep = mode_comm_coop(p)
    assert rep.ok
    assert max_kkt_residual(rep.allocation, rep.dual, p) <= 1e-6
    assert check_feasible(rep.allocation, p).feasible(1e-9)
    g = _comm_dual_value(rep.dual, p)
    assert g <= rep.energy * (1.0 + 1e-9)
    assert (rep.energy - g) / rep.energy <= min(rep.duality_gap, GAP_TOL)


def test_mode_comm_coop_runs_no_ellipsoid(monkeypatch):
    runs = []
    real = coopmec.ellipsoid.ellipsoid_run
    monkeypatch.setattr(coopmec.ellipsoid, "ellipsoid_run",
                        lambda *a, **k: runs.append(a) or real(*a, **k))
    for param in COMM_INSTANCES:
        assert mode_comm_coop(param.values[0]()).ok
    assert runs == []


@pytest.mark.parametrize("make,parent_energy,parent_gap", [
    (lambda: desk_params(T=0.01), 0.03914381260735918, 2.94e-08),
    (lambda: desk_params(T=0.05), 0.006692539157028735, 5.14e-07),
    (lambda: desk_params(T=0.1), 0.005805192375611402, 1.12e-07),
    (lambda: _at_capacity_fraction("helper-near-ap", 0.999), 0.3094011464192869, 5.99e-08),
    (lambda: _at_capacity_fraction("random", 0.999), 0.9443061834007798, 1.2e-08),
    (lambda: _at_capacity_fraction("direct-link-strong", 1.0), 0.22979060985450306, 3.35e-06),
])
def test_mode_comm_coop_no_worse_than_the_dual_pipeline(make, parent_energy, parent_gap):
    # energies and gaps the ellipsoid pipeline certified for this mode: the
    # 1-D search lands at or below each, up to that gap
    rep = mode_comm_coop(make())
    assert rep.ok
    assert rep.energy <= parent_energy * (1.0 + parent_gap)
    assert rep.energy >= parent_energy * (1.0 - 2.0 * parent_gap)


def test_oracle_comm_coop_is_independent_of_the_relay_solver():
    # the grid oracle must not reach the solver's relay formulas or the
    # dual subproblems it is checked against
    for value in vars(coopmec.oracle).values():
        assert getattr(value, "__module__", None) != "coopmec.p2"
    assert not {"solve_sub2", "solve_sub3", "mode_comm_coop"} & set(vars(coopmec.oracle))


def test_solve_p2_selects_minimum(p_default):
    for T in (0.02, 0.05, 0.1):
        p = desk_params(T=T)
        rep = solve_p2(p)
        assert rep.ok
        feasible = [r for r in (mode_local(p), mode_comp_coop(p), mode_comm_coop(p))
                    if r.status != STATUS_INFEASIBLE]
        assert rep.energy == pytest.approx(min(r.energy for r in feasible), rel=1e-12)


def test_solve_p2_mode_crossovers():
    # small block: only the relay route can carry the task in time;
    # large block: plain local computing wins
    small = solve_p2(desk_params(T=0.012))
    assert small.mode_label == MODE_COMM
    large = solve_p2(desk_params(T=0.1))
    assert large.mode_label == MODE_LOCAL


def test_solve_p2_single_feasible_mode():
    # dead channels leave local computing as the only candidate
    p = desk_params(T=0.05, L=5e4, h01=1e-30, h0=1e-30, h1=1e-30)
    rep = solve_p2(p)
    assert rep.ok and rep.mode_label == MODE_LOCAL


def test_solve_p2_infeasible():
    p = desk_params(T=0.005, L=1e7)
    rep = solve_p2(p)
    assert rep.status == STATUS_INFEASIBLE
    assert rep.l_max == lmax_binary(p).L_max2


def test_p1_dominates_p2():
    for T in (0.015, 0.03, 0.06, 0.1):
        p = desk_params(T=T)
        r1_ = solve_p1(p)
        r2 = solve_p2(p)
        assert r1_.ok and r2.ok
        assert r1_.energy <= r2.energy * (1.0 + 1e-9)


def test_comp_objective_convex_on_interval():
    from coopmec.p2 import _comp_objective

    p = desk_params(T=0.05)
    lo = p.L / r01(p.P_u_max, p)
    hi = p.T - p.c_h * p.L / p.f_h_max
    ts = np.linspace(lo, hi, 41)
    for i in range(1, len(ts) - 1):
        mid = _comp_objective(ts[i], p)
        avg = 0.5 * (_comp_objective(ts[i - 1], p) + _comp_objective(ts[i + 1], p))
        assert mid <= avg * (1.0 + 1e-12)
