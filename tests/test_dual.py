import concurrent.futures
import math

import numpy as np
import pytest

from coopmec.dual import (
    FULL,
    DualInfeasibleError,
    DualPoint,
    Restriction,
    eval_dual_restricted,
    solve_sub1,
    solve_sub2,
    solve_sub3,
    solve_sub4,
    solve_sub5,
)
from coopmec.model import LN2, SystemParams, r0, r01, r1
from coopmec.oracle import refine_grid
from coopmec.p1 import solve_p1
from conftest import desk_params


def random_dual(rng, p: SystemParams) -> DualPoint:
    """Random point of the dual feasible set, spanning both helper-idle
    (mu2 < lam1) and helper-active (mu2 > lam1) regimes."""
    lam_scale = LN2 / p.B * (1.0 / p.g01 + p.P_u_max)
    mu2_scale = 3.0 * p.kappa_u * p.c_u * p.f_u_max**2
    lam1 = float(rng.uniform(0.0, 2.0) * lam_scale)
    lam2 = float(rng.uniform(0.0, 2.0) * lam_scale)
    lam3 = float(rng.uniform(0.0, 2.0) * lam_scale)
    mu1 = float(rng.uniform(0.0, 0.5) * lam_scale * r01(p.P_u_max, p))
    mu2 = float(rng.uniform(-0.2, 1.5) * max(mu2_scale, lam1))
    cap = lam2 + lam3 + mu1 * p.c_a / p.f_a_max
    return DualPoint(lam1, lam2, lam3, mu1, min(mu2, cap))


# -- closed-form-vs-grid checks --------------------------------------------


def sub1_grid_value(d, p, pts=21, rounds=18):
    # brute force over (P1, tau1, M): E1 = P1 tau1, l_h = M (T - tau1)
    # covers the coupled box exactly
    def fn(axes):
        P1, tau1, M = axes
        lh = M * (p.T - tau1)
        with np.errstate(invalid="ignore", divide="ignore"):
            rt = p.B * np.log2(1.0 + P1 * p.g01)
            val = (
                P1 * tau1 + d.mu1 * tau1 - d.lam1 * tau1 * rt
                + p.kappa_h * p.c_h**3 * M**3 * (p.T - tau1)
                + (d.lam1 - d.mu2) * lh
            )
        return val

    lo = np.zeros(3)
    hi = np.array([p.P_u_max, p.T, p.f_h_max / p.c_h])
    _, v = refine_grid(fn, lo, hi, pts=pts, rounds=rounds)
    return v


def sub23_grid_value(d, p, which, pts=33, rounds=18):
    if which == 2:
        cap = p.P_u_max

        def per_sec(P):
            return (
                P + d.mu1
                - d.lam2 * p.B * np.log2(1.0 + P * p.g0)
                - d.lam3 * p.B * np.log2(1.0 + P * p.g01)
            )
    else:
        cap = p.P_h_max

        def per_sec(P):
            return P + d.mu1 - d.lam2 * p.B * np.log2(1.0 + P * p.g1)

    def fn(axes):
        P, tau = axes
        return tau * per_sec(P)

    _, v = refine_grid(fn, np.zeros(2), np.array([cap, p.T]), pts=pts, rounds=rounds)
    return v


def test_sub1_matches_grid(p_default, rng):
    for _ in range(25):
        d = random_dual(rng, p_default)
        s = solve_sub1(d, p_default)
        grid = sub1_grid_value(d, p_default)
        scale = max(abs(grid), 1e-12)
        assert s["value"] <= grid + 1e-6 * scale
        assert abs(s["value"] - grid) <= 1e-6 * scale


def test_sub2_matches_grid(p_default, rng):
    for _ in range(25):
        d = random_dual(rng, p_default)
        s = solve_sub2(d, p_default)
        grid = sub23_grid_value(d, p_default, which=2)
        scale = max(abs(grid), 1e-12)
        assert abs(s["value"] - grid) <= 1e-6 * scale


def test_sub3_matches_grid(p_default, rng):
    for _ in range(25):
        d = random_dual(rng, p_default)
        s = solve_sub3(d, p_default)
        grid = sub23_grid_value(d, p_default, which=3)
        scale = max(abs(grid), 1e-12)
        assert abs(s["value"] - grid) <= 1e-6 * scale


def test_sub4_matches_grid(p_default, rng):
    cap = p_default.T * p_default.f_u_max / p_default.c_u
    k = p_default.kappa_u * p_default.c_u**3 / p_default.T**2
    for _ in range(50):
        d = random_dual(rng, p_default)
        lu = solve_sub4(d, p_default)
        grid_l = np.linspace(0.0, cap, 400_001)
        vals = k * grid_l**3 - d.mu2 * grid_l
        best = float(vals.min())
        mine = k * lu**3 - d.mu2 * lu
        assert mine <= best + 1e-9 * max(abs(best), 1e-12)


def test_sub5_cases(p_default):
    p = p_default
    base = dict(lam1=0.0, mu1=0.0, mu2=0.0)
    # positive coefficient -> no AP bits
    assert solve_sub5(DualPoint(lam2=1e-6, lam3=0.0, **base), p) == 0.0
    # negative coefficient -> everything to the AP
    d = DualPoint(lam1=0.0, lam2=0.0, lam3=0.0, mu1=0.0, mu2=1e-6)
    assert solve_sub5(d, p) == p.L
    # exact tie -> 0, recovery decides later
    d = DualPoint(lam1=0.0, lam2=1e-6, lam3=0.0, mu1=0.0, mu2=1e-6)
    assert solve_sub5(d, p) == 0.0


# -- closed-form spot checks ---------------------------------------------------


@pytest.mark.parametrize("solve,slot", [
    (solve_sub1, "1"), (solve_sub2, "2"), (solve_sub3, "3"),
])
def test_slot_opens_on_any_negative_price(p_default, solve, slot):
    # rho_i is mu1 plus a term free of mu1; pick mu1 so rho_i is a hair
    # below zero (far inside a 1e-12 * mu1 band): the slot opens, and the
    # value is the exact minimum tau_i * rho_i < 0
    p = p_default
    base = dict(lam1=1e-5, lam2=1e-5, lam3=1e-5, mu2=0.0)
    rho0 = solve(DualPoint(mu1=0.0, **base), p)["rho" + slot]
    assert rho0 < 0.0
    mu1 = -rho0 * (1.0 - 1e-14)
    s = solve(DualPoint(mu1=mu1, **base), p)
    rho = s["rho" + slot]
    assert -1e-12 * mu1 < rho < 0.0
    assert s["tau" + slot] == p.T
    assert s["value"] == p.T * rho


def test_sub1_power_clips(p_default):
    # no reward for the offload rate: a zero price pins the power at zero
    d = DualPoint(0.0, 0.0, 0.0, 0.0, 0.0)
    assert solve_sub1(d, p_default)["P1"] == 0.0
    # a huge price saturates the cap
    d = DualPoint(1.0, 0.0, 0.0, 0.0, 0.0)
    assert solve_sub1(d, p_default)["P1"] == p_default.P_u_max


def test_sub1_helper_rate_branches(p_default):
    p = p_default
    # mu2 <= lam1: no helper computing
    d = DualPoint(1e-6, 0.0, 0.0, 0.0, 5e-7)
    assert solve_sub1(d, p)["M1"] == 0.0
    # mu2 > lam1: interior stationary rate
    d = DualPoint(1e-7, 0.0, 0.0, 0.0, 2e-7)
    m = solve_sub1(d, p)["M1"]
    expect = math.sqrt((2e-7 - 1e-7) / (3 * p.kappa_h * p.c_h**3))
    assert m == pytest.approx(expect, rel=1e-12)
    # huge mu2 clips at the CPU cap
    d = DualPoint(0.0, 0.0, 0.0, 0.0, 1.0)
    assert solve_sub1(d, p)["M1"] == p.f_h_max / p.c_h


def test_sub2_zero_prices(p_default):
    d = DualPoint(0.0, 0.0, 0.0, 0.0, 0.0)
    s = solve_sub2(d, p_default)
    assert s["P2"] == 0.0
    assert s["tau2"] == 0.0


def test_sub3_cases(p_default):
    d = DualPoint(0.0, 0.0, 0.0, 1e-3, 0.0)
    s = solve_sub3(d, p_default)
    assert s["P3"] == 0.0
    assert s["rho3"] == pytest.approx(1e-3)
    assert s["tau3"] == 0.0
    d = DualPoint(0.0, 1.0, 0.0, 0.0, 0.0)
    assert solve_sub3(d, p_default)["P3"] == p_default.P_h_max


def test_sub4_examples():
    p = desk_params(T=1.0, L=1e6)
    # mu2 <= 0 gives no local bits
    assert solve_sub4(DualPoint(0, 0, 0, 0, -1e-9), p) == 0.0
    assert solve_sub4(DualPoint(0, 0, 0, 0, 0.0), p) == 0.0
    # mu2 = 3 kappa_u c_u^3 puts the stationary point at exactly one bit
    lu = solve_sub4(DualPoint(0, 0, 0, 0, 3e-18), p)
    assert lu == pytest.approx(1.0, rel=1e-12)
    # enormous price clips at the frequency cap
    lu = solve_sub4(DualPoint(0, 0, 0, 0, 1.0), p)
    assert lu == pytest.approx(p.T * p.f_u_max / p.c_u, rel=1e-14)


def test_eval_dual_zero_point(p_default):
    d = DualPoint(0.0, 0.0, 0.0, 0.0, 0.0)
    g, sol, sub = eval_dual_restricted(d, p_default, FULL)
    assert g == 0.0
    assert sol.l_u == sol.l_h == sol.l_a == 0.0
    assert sol.tau1 == sol.tau2 == sol.tau3 == 0.0
    assert sub[4] == pytest.approx(p_default.L)


def test_eval_dual_supergradient_inequality(p_default, rng):
    # g(d') <= g(d) + s(d) . (d' - d) for concave g
    for _ in range(40):
        d = random_dual(rng, p_default)
        d2 = random_dual(rng, p_default)
        g1, _, s1 = eval_dual_restricted(d, p_default, FULL)
        g2, _, _ = eval_dual_restricted(d2, p_default, FULL)
        lin = g1 + float(s1 @ (d2.as_array() - d.as_array()))
        assert g2 <= lin + 1e-9 * max(1.0, abs(lin))


def test_eval_dual_concavity_midpoint(p_default, rng):
    for _ in range(40):
        a = random_dual(rng, p_default)
        b = random_dual(rng, p_default)
        mid = DualPoint.from_array(0.5 * (a.as_array() + b.as_array()))
        if not mid.feasible(p_default):
            continue
        gm, _, _ = eval_dual_restricted(mid, p_default, FULL)
        ga, _, _ = eval_dual_restricted(a, p_default, FULL)
        gb, _, _ = eval_dual_restricted(b, p_default, FULL)
        assert gm >= 0.5 * (ga + gb) - 1e-9 * max(1.0, abs(gm))


def test_weak_duality_against_solver_allocation(p_default, rng):
    rep = solve_p1(p_default)
    assert rep.ok
    for _ in range(30):
        d = random_dual(rng, p_default)
        g, _, _ = eval_dual_restricted(d, p_default, FULL)
        assert g <= rep.energy * (1.0 + 1e-9) + 1e-12


def test_box_bounds_exact(p_default, rng):
    for _ in range(40):
        d = random_dual(rng, p_default)
        _, sol, _ = eval_dual_restricted(d, p_default, FULL)
        assert 0.0 <= sol.P1 <= p_default.P_u_max
        assert 0.0 <= sol.P2 <= p_default.P_u_max
        assert 0.0 <= sol.P3 <= p_default.P_h_max
        assert 0.0 <= sol.M1 <= p_default.f_h_max / p_default.c_h
        assert 0.0 <= sol.l_u <= p_default.T * p_default.f_u_max / p_default.c_u
        assert sol.tau1 in (0.0, p_default.T)
        assert sol.l_h == pytest.approx(sol.M1 * (p_default.T - sol.tau1))


def test_dual_infeasible_rejected(p_default):
    with pytest.raises(DualInfeasibleError):
        eval_dual_restricted(DualPoint(-1e-9, 0, 0, 0, 0), p_default, FULL)
    # mu2 above the l_a coefficient cap makes the dual unbounded below
    with pytest.raises(DualInfeasibleError):
        eval_dual_restricted(DualPoint(1.0, 0.0, 0.0, 0.0, 1.0), p_default, FULL)


def test_kkt_stationarity_at_interior_subproblem_solutions(p_default, rng):
    # the closed forms satisfy the first-order conditions they came from
    p = p_default
    checked = 0
    for _ in range(200):
        d = random_dual(rng, p)
        s1 = solve_sub1(d, p)
        if 0.0 < s1["P1"] < p.P_u_max:
            resid = 1.0 - d.lam1 * p.B * p.g01 / (LN2 * (1.0 + s1["P1"] * p.g01))
            assert abs(resid) <= 1e-7
            checked += 1
        if 0.0 < s1["M1"] < p.f_h_max / p.c_h:
            resid = 3.0 * p.kappa_h * p.c_h**3 * s1["M1"] ** 2 - (d.mu2 - d.lam1)
            assert abs(resid) <= 1e-7 * max(abs(d.mu2), 1e-12)
            checked += 1
        s3 = solve_sub3(d, p)
        if 0.0 < s3["P3"] < p.P_h_max:
            resid = 1.0 - d.lam2 * p.B * p.g1 / (LN2 * (1.0 + s3["P3"] * p.g1))
            assert abs(resid) <= 1e-7
            checked += 1
    assert checked > 50


def test_restriction_active_duals():
    assert FULL.active_duals == ("lam1", "lam2", "lam3", "mu1", "mu2")
    comp = Restriction(relay_path=False)
    assert comp.active_duals == ("lam1", "mu1", "mu2")
    comm = Restriction(helper_path=False)
    assert comm.active_duals == ("lam2", "lam3", "mu1", "mu2")


def test_eval_dual_thread_safe(p_default, rng):
    duals = [random_dual(rng, p_default) for _ in range(40)]
    serial = [eval_dual_restricted(d, p_default, FULL)[0] for d in duals]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
        parallel = list(ex.map(lambda d: eval_dual_restricted(d, p_default, FULL)[0], duals))
    assert serial == parallel


def test_subgradient_is_the_residual_vector_bit_for_bit(p_default, rng):
    # the evaluator reuses the subproblems' rates; the entries must equal
    # the dualized-constraint residuals recomputed from the model's rates
    p = p_default
    rests = [FULL, Restriction(helper_path=False), Restriction(relay_path=False)]
    for _ in range(40):
        d = random_dual(rng, p)
        for rest in rests:
            _, s, sub = eval_dual_restricted(d, p, rest)
            full = {
                "lam1": s.l_h - s.tau1 * r01(s.P1, p),
                "lam2": s.l_a - s.tau2 * r0(s.P2, p) - s.tau3 * r1(s.P3, p),
                "lam3": s.l_a - s.tau2 * r01(s.P2, p),
                "mu1": s.tau1 + s.tau2 + s.tau3 + s.l_a * p.c_a / p.f_a_max - p.T,
                "mu2": p.L - s.l_u - s.l_h - s.l_a,
            }
            assert sub.tolist() == [full[name] for name in rest.active_duals]
            assert rest.expand(sub.tolist()) == DualPoint(
                **{name: full[name] if name in rest.active_duals else 0.0
                   for name in full})
