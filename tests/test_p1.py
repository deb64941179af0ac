import gc
import tracemalloc
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest

import coopmec.model
import coopmec.p1
from coopmec.bench import run_benchmark
from coopmec.dual import FULL, DualPoint, Restriction, solve_sub2, solve_sub3
from coopmec.model import (
    capacity_point,
    check_feasible,
    l_u_max,
    lmax_binary,
    r0,
    r01,
    r1,
    total_energy,
)
from coopmec.oracle import max_kkt_residual, oracle_p11
from coopmec.p1 import (
    CERTIFIED_BY,
    COLD_STARTS,
    GAP_TOL,
    MAX_ITER,
    STATUS_INFEASIBLE,
    STATUS_NONCONVERGED,
    STATUS_OPTIMAL,
    RecoveryError,
    lmax_partial,
    recover_primal,
    solve_p1,
    solve_restricted,
)
from coopmec.p2 import mode_local
from coopmec.scenario import Scenario
from conftest import desk_params, no_cold_attempt, random_params

EPS = np.finfo(float).eps


def test_lmax_tiny_block():
    # a vanishing block supports (essentially) no bits
    p = desk_params(T=1e-9, L=1e-9)
    assert lmax_partial(p) < 10.0


def test_lmax_dead_channels_local_only():
    # channels carrying nothing leave exactly the local CPU capacity
    p = desk_params(h01=1e-30, h0=1e-30, h1=1e-30)
    cap = p.T * p.f_u_max / p.c_u
    assert lmax_partial(p) == pytest.approx(cap, rel=1e-6)


def test_lmax_increasing_in_T_and_above_local():
    prev = -1.0
    for T in np.linspace(0.01, 0.1, 10):
        p = desk_params(T=float(T), D=20.0)
        v = lmax_partial(p)
        assert v >= p.T * p.f_u_max / p.c_u - 1e-6
        assert v > prev
        prev = v


def _lmax_highs(p, pinned=()) -> float:
    """A capacity from scipy's HiGHS (see _capacity_lp_highs)."""
    return -_capacity_lp_highs(p, pinned).fun


def _capacity_lp_highs(p, pinned=()):
    """The capacity LP solved by scipy's HiGHS, written with inequalities
    only: every route, CPU and the block within its limits, and the bits
    named in `pinned` (of l_u, l_h, l_a) held at zero with the slots that
    carry them. Its x is (tau1, tau2, tau3, l_u, l_h, l_a)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    r01m, r0m, r1m = r01(p.P_u_max, p), r0(p.P_u_max, p), r1(p.P_h_max, p)
    # vars: tau1, tau2, tau3, l_u, l_h, l_a
    A_ub = [
        [1.0, 1.0, 1.0, 0.0, 0.0, p.c_a / p.f_a_max],   # the block
        [0.0, 0.0, 0.0, p.c_u, 0.0, 0.0],                # user CPU
        [p.f_h_max, 0.0, 0.0, 0.0, p.c_h, 0.0],          # helper CPU after tau1
        [-r01m, 0.0, 0.0, 0.0, 1.0, 0.0],                # helper bits
        [0.0, -r01m, 0.0, 0.0, 0.0, 1.0],                # the helper decodes l_a
        [0.0, -r0m, -r1m, 0.0, 0.0, 1.0],                # the AP collects l_a
    ]
    b_ub = [p.T, p.T * p.f_u_max, p.T * p.f_h_max, 0.0, 0.0, 0.0]
    carriers = {"l_u": (3,), "l_h": (0, 4), "l_a": (1, 2, 5)}
    zero = {i for name in pinned for i in carriers[name]}
    bounds = [(0.0, 0.0) if i in zero else (0.0, None) for i in range(6)]
    res = linprog([0.0, 0.0, 0.0, -1.0, -1.0, -1.0], A_ub=A_ub, b_ub=b_ub,
                  bounds=bounds, method="highs")
    assert res.status == 0
    return res


#: the bits each dual-pipeline scheme holds at zero, in _lmax_highs' terms
SCHEME_PINS = {"joint-partial": (), "comp-partial": ("l_a",),
               "comm-partial": ("l_h",), "comm-binary": ("l_u", "l_h")}


def test_lmax_with_a_direct_link_faster_than_the_helper_link():
    # acceptance instance #23: r0(P_u_max) > r01(P_u_max), so the AP hears
    # the user better than the helper does. A relay flow balance written
    # as an equality forced tau2 = tau3 = 0 there and gave 25.1k bits
    p = _acceptance_instance(23)
    assert r0(p.P_u_max, p) > r01(p.P_u_max, p)
    assert lmax_partial(p) == pytest.approx(138128.637832, rel=1e-9)
    assert lmax_partial(p) == pytest.approx(_lmax_highs(p), rel=1e-9)


def test_lmax_matches_highs(rng):
    # with a = r01, b = r0, c = r1 at the caps: the a <= b branch of the AP
    # rate (a strong direct link), the direct link alone (a weak forward
    # hop), the relay (the desk), dead channels, and random draws
    d = desk_params()
    instances = [
        d, _acceptance_instance(39), desk_params(h0=100.0 * d.h01),
        desk_params(h1=1e-3 * d.h1), desk_params(h1=1e-30),
        desk_params(h01=1e-30, h0=1e-30, h1=1e-30),
    ] + [random_params(rng) for _ in range(20)]
    branches = set()
    for p in instances:
        a, b, c = r01(p.P_u_max, p), r0(p.P_u_max, p), r1(p.P_h_max, p)
        k = p.c_a / p.f_a_max
        branches.add("a<=b" if a <= b else "direct" if c == 0.0
                     or b / (1 + k * b) >= a / (1 + (a - b) / c + k * a) else "relay")
        for scheme, pinned in SCHEME_PINS.items():
            assert _scheme_capacity(p, scheme) == pytest.approx(
                _lmax_highs(p, pinned), rel=1e-9)
    assert branches == {"a<=b", "direct", "relay"}


def _rescaled_bits(p, k: float):
    return replace(p, B=k * p.B, L=k * p.L, c_u=p.c_u / k, c_h=p.c_h / k, c_a=p.c_a / k)


@pytest.mark.parametrize("k", [1e-3, 1e3])
def test_bits_rescaled_scale_every_capacity(k):
    # B -> kB, L -> kL, c_* -> c_*/k is the same problem in other bit units
    rng = np.random.default_rng(5)
    for p in [desk_params(), desk_params(D=240.0)] + [random_params(rng) for _ in range(8)]:
        q = _rescaled_bits(p, k)
        for x, y in zip(astuple(lmax_binary(q)), astuple(lmax_binary(p))):
            assert x == pytest.approx(k * y, rel=1e-14)
        for scheme in SCHEME_PINS:
            assert _scheme_capacity(q, scheme) == pytest.approx(
                k * _scheme_capacity(p, scheme), rel=1e-14)


def test_bits_rescaled_keep_status_and_energy():
    # the same problem in other bit units: each certificate brackets the
    # one optimum, so two certified energies differ by at most their gaps.
    # A face-solved gap is itself rounding (about 1e-16), and each energy
    # is a sum of a few terms computed in floating point, so each can sit
    # a few ulps from its exact value: 4 eps of max(E, E_k) for each of
    # the two, 8 eps in all
    rng = np.random.default_rng(1234)
    for p in [random_params(rng) for _ in range(4)]:
        for scheme in ("joint-partial", "comp-partial", "comm-binary"):
            rep = run_benchmark(scheme, p)
            for k in (1e-3, 1e3):
                rep_k = run_benchmark(scheme, _rescaled_bits(p, k))
                assert rep_k.status == rep.status
                if rep.ok:
                    bound = (rep.duality_gap * rep.energy + rep_k.duality_gap * rep_k.energy
                             + 8.0 * EPS * max(rep.energy, rep_k.energy))
                    assert abs(rep.energy - rep_k.energy) <= bound


def test_solve_p1_zero_task():
    p = desk_params(L=0.0)
    rep = solve_p1(p)
    assert rep.ok
    assert rep.energy == 0.0
    assert rep.allocation.l_u == 0.0


def test_solve_p1_infeasible_reports_capacity():
    p = desk_params(T=0.01, L=1e9)
    rep = solve_p1(p)
    assert rep.status == STATUS_INFEASIBLE
    assert rep.l_max is not None and rep.l_max < 1e9
    assert rep.allocation is None


def test_solve_p1_free_helper_limit():
    # an (almost) free helper with a huge channel absorbs the entire task
    p = desk_params(T=0.05, L=1e5, h01=1e-3, kappa_h=1e-40, f_h_max=1e12)
    rep = solve_p1(p)
    assert rep.ok
    assert rep.allocation.l_h == pytest.approx(p.L, rel=1e-3)
    assert rep.energy < 1e-5  # shipping at enormous SNR costs next to nothing


def test_solve_p1_default_scenario_against_oracle(p_default):
    rep = solve_p1(p_default)
    assert rep.ok
    ora = oracle_p11(p_default, budget=2)
    assert ora.feasible
    assert rep.energy == pytest.approx(ora.energy, rel=1e-3)


def test_solve_p1_certificates(p_default):
    rep = solve_p1(p_default)
    assert rep.ok
    assert rep.duality_gap <= 1e-5
    assert rep.feasibility.feasible(1e-9)
    assert rep.dual is not None and rep.dual.feasible(p_default, tol=1e-12)
    # answered cold on the helper-only face (0 iterations) or by the ascent
    assert rep.iterations < MAX_ITER


def test_solve_p1_monotone_in_T():
    prev = np.inf
    for T in (0.02, 0.04, 0.06, 0.08, 0.1):
        rep = solve_p1(desk_params(T=T))
        assert rep.ok
        assert rep.energy <= prev * (1.0 + 1e-9)
        prev = rep.energy


def test_recover_primal_strong_duality(p_default):
    rep = solve_p1(p_default)
    alloc = recover_primal(rep.dual, p_default)
    energy = total_energy(alloc, p_default)
    assert check_feasible(alloc, p_default).feasible(1e-9)
    assert energy == pytest.approx(rep.energy, rel=1e-6)


def test_recover_primal_solves_one_lp(rng, monkeypatch):
    # the recovery is one LP, cap columns included, and no other candidate
    real = coopmec.p1.lp_solve
    calls = []
    monkeypatch.setattr(coopmec.p1, "lp_solve",
                        lambda *args: calls.append(args) or real(*args))
    for p in [desk_params()] + [random_params(rng) for _ in range(3)]:
        rep = solve_p1(p)
        assert rep.ok
        calls.clear()
        recover_primal(rep.dual, p)
        assert len(calls) == 1


def test_recover_primal_raises_when_no_allocation_is_feasible():
    # L is above the local capacity (1e5 bits), and zero prices open no
    # slot, so the recovery LP has nothing to carry the surplus with
    p = desk_params(T=0.05, L=1.5e5)
    assert p.L > p.T * p.f_u_max / p.c_u
    with pytest.raises(RecoveryError):
        recover_primal(DualPoint(0, 0, 0, 0, 0), p)


@pytest.mark.parametrize("scheme", ["comp-partial", "joint-partial"])
def test_partial_schemes_beat_all_local_at_T_100ms(scheme):
    # the helper takes a few bits for less than all-local computing costs;
    # a competing all-local candidate in the recovery once won here with a
    # duality gap of about 3e-6
    p = desk_params(T=0.1)
    rep = run_benchmark(scheme, p)
    _assert_certified(rep, p)
    all_local = p.kappa_u * p.c_u**3 * p.L**3 / p.T**2
    assert rep.energy < all_local * (1.0 - 1e-6)


def test_recover_primal_local_pricing_only():
    # prices reward nothing but local computing: all bits stay at the user
    p = desk_params(T=0.1, L=2e4)
    mu2 = 3 * p.kappa_u * p.c_u**3 * (p.L / p.T) ** 2
    d = DualPoint(lam1=mu2, lam2=mu2, lam3=0.0, mu1=0.0, mu2=mu2)
    alloc = recover_primal(d, p)
    assert alloc.l_u == pytest.approx(p.L, rel=1e-9)
    assert alloc.l_h + alloc.l_a <= 1e-6 * p.L


def test_random_instances_gap_and_feasibility(rng):
    for _ in range(8):
        p = random_params(rng)
        rep = solve_p1(p)
        assert rep.ok, f"{p}"
        assert rep.duality_gap <= 1e-5
        assert rep.feasibility.feasible(1e-9)


def test_interior_instance_certifies_seed_6_draw_12():
    # an interior instance (L at 0.69 of capacity) that ran to both caps
    # and ended nonconverged with gap 0.58 before the checkpoints
    rng = np.random.default_rng(6)
    p = [random_params(rng) for _ in range(13)][12]
    rep = solve_p1(p)
    assert rep.ok
    assert rep.duality_gap <= GAP_TOL
    assert max_kkt_residual(rep.allocation, rep.dual, p) <= 1e-6
    assert check_feasible(rep.allocation, p).feasible(1e-9)


def _acceptance_instance(i: int):
    """Draw i of acceptance criterion 1's batch (random_params, seed 20250808)."""
    rng = np.random.default_rng(20250808)
    return [random_params(rng) for _ in range(i + 1)][i]


@pytest.mark.parametrize("i", [8, 24, 26, 30, 31, 45])
def test_certifies_without_a_face_polish(i):
    # the ascent's own answer certifies on the acceptance instances whose
    # answer a face-polish pass after the ascent used to replace
    p = _acceptance_instance(i)
    rep = solve_p1(p)
    assert rep.ok
    assert rep.duality_gap <= GAP_TOL
    assert max_kkt_residual(rep.allocation, rep.dual, p) <= 1e-6
    assert check_feasible(rep.allocation, p).feasible(1e-9)


def test_certifies_near_capacity_with_helper_near_ap():
    # helper 10 m from the AP, L at 0.999 of capacity: without a face
    # polish this once reported optimal with a KKT residual of 4.4e-5
    p = desk_params(T=0.05, D=240.0)
    p = replace(p, L=0.999 * lmax_partial(p))
    rep = solve_p1(p)
    assert rep.ok
    assert rep.duality_gap <= GAP_TOL
    assert max_kkt_residual(rep.allocation, rep.dual, p) <= 1e-6
    assert check_feasible(rep.allocation, p).feasible(1e-9)


def _scheme_capacity(p, scheme: str) -> float:
    if scheme == "joint-partial":
        return lmax_partial(p)
    cap = lmax_binary(p)
    return {"comp-partial": cap.l_u_max + cap.l_h_max,
            "comm-partial": cap.l_u_max + cap.l_a_max,
            "comm-binary": cap.l_a_max}[scheme]


def _assert_certified(rep, p):
    assert rep.ok
    assert check_feasible(rep.allocation, p).feasible(1e-9)
    if rep.dual is None:
        # the capacity vertex: the only feasible point, with no ascent
        assert rep.iterations == 0 and rep.duality_gap == 0.0
    else:
        assert rep.duality_gap <= GAP_TOL
        assert max_kkt_residual(rep.allocation, rep.dual, p) <= 1e-6


def _certified_at_fraction(scheme: str, frac: float, **desk):
    """Solve `scheme` at `frac` of its capacity on a T = 50 ms desk
    instance and check the full certificate."""
    p = desk_params(T=0.05, **desk)
    p = replace(p, L=frac * _scheme_capacity(p, scheme))
    rep = run_benchmark(scheme, p)
    _assert_certified(rep, p)
    return p, rep


def _direct_link_strong() -> dict:
    # the user-AP link 100 times stronger than the default user-helper link
    return {"h0": 100.0 * desk_params().h01}


@pytest.mark.parametrize("scheme", ["joint-partial", "comm-partial", "comm-binary"])
def test_certifies_at_capacity_with_helper_near_ap(scheme):
    # L at capacity, where the dual optimum is not attained: these ended
    # nonconverged after three radius attempts with central cuts
    _certified_at_fraction(scheme, 1.0, D=240.0)


def test_comp_partial_certifies_at_capacity_with_strong_direct_link():
    # reported optimal with a KKT residual of 1.02e-6 before the KKT bound
    # gated the end-of-pass candidates
    _certified_at_fraction("comp-partial", 1.0, **_direct_link_strong())


def test_comm_binary_tiny_task_with_strong_direct_link_is_weakly_dual():
    # at 1e-6 of capacity the relay slot's price sits within 2.1e-13 of
    # zero; a tie band there overstated the dual value by 6.4e-7 of the
    # energy. The exact dual value at the report's dual point stays below
    # the energy (weak duality)
    p, rep = _certified_at_fraction("comm-binary", 1e-6, **_direct_link_strong())
    d = rep.dual
    value = (solve_sub2(d, p)["value"] + solve_sub3(d, p)["value"]
             + (d.lam2 + d.lam3) * p.L + d.mu1 * (p.L * p.c_a / p.f_a_max - p.T))
    assert value <= rep.energy * (1.0 + 1e-9)


#: the capacity-edge instances (perfbench's templates, T = 50 ms)
EDGE_TEMPLATES = {
    "helper-near-user": lambda: desk_params(T=0.05, D=10.0),
    "helper-near-ap": lambda: desk_params(T=0.05, D=240.0),
    "direct-link-strong": lambda: desk_params(T=0.05, **_direct_link_strong()),
    "random": lambda: random_params(np.random.default_rng(7)),
}


#: the schemes of the dual pipeline, solve_restricted with a restriction
PARTIAL_SCHEMES = ("joint-partial", "comp-partial", "comm-partial")


@pytest.mark.parametrize("scheme,template", [
    (scheme, template) for scheme in PARTIAL_SCHEMES for template in EDGE_TEMPLATES])
def test_certifies_at_capacity_before_the_cap(monkeypatch, scheme, template):
    # at L = capacity the feasible set is one point, every CPU and used
    # transmitter at its cap. Eight of these ops ran to MAX_ITER on an
    # unbounded dual, and later certified at a breakdown checkpoint after
    # 164-765 iterations (test_breakdown_checkpoint_certifies_before_the_cap
    # covers that checkpoint). The report is that point, with no ascent
    # and no recovery, exactly feasible, and the capacity LP's unique optimum
    recovered = []
    real = coopmec.p1.recover_primal
    monkeypatch.setattr(coopmec.p1, "recover_primal",
                        lambda d, p, rest: recovered.append(d) or real(d, p, rest))
    p = EDGE_TEMPLATES[template]()
    p = replace(p, L=_scheme_capacity(p, scheme))
    rep = run_benchmark(scheme, p)
    assert rep.status == STATUS_OPTIMAL and rep.iterations == 0 and not recovered
    assert rep.dual is None and rep.duality_gap == 0.0
    assert rep.feasibility.max_violation <= 1e-14
    a = rep.allocation
    assert a.l_u + a.l_h + a.l_a == p.L  # the capacity, float for float
    x = _capacity_lp_highs(p, SCHEME_PINS[scheme]).x
    got = (a.tau1, a.tau2, a.tau3, a.l_u, a.l_h, a.l_a)
    for v, ref in zip(got, x):
        assert v == pytest.approx(ref, rel=1e-9, abs=1e-12 * max(p.L, p.T))
    assert rep.energy == total_energy(a, p)


@pytest.mark.parametrize("scheme", PARTIAL_SCHEMES)
def test_capacity_vertex_within_the_fits_allowance(scheme):
    # within fits' 1e-12 above capacity the vertex carries all but the
    # task's excess, which is the partition residual: 1e-12 up to the
    # rounding of L (one ulp of L is 2e-4 of the excess); 1e-11 above
    # capacity the task does not fit
    p = EDGE_TEMPLATES["random"]()
    cap = _scheme_capacity(p, scheme)
    q = replace(p, L=cap * (1.0 + 1e-12))
    rep = run_benchmark(scheme, q)
    assert rep.status == STATUS_OPTIMAL and rep.iterations == 0
    assert rep.feasibility.residuals["bit_partition"] == (q.L - cap) / q.L <= 1.001e-12
    assert run_benchmark(scheme, replace(p, L=cap * (1.0 + 1e-11))).status == STATUS_INFEASIBLE


def test_capacity_vertex_certifies_the_batch_at_capacity():
    # the frac-1 draws of the near-capacity batch (draws 3, 9, 15, 21 of
    # seeds 100-105): each ascended an unbounded dual to a breakdown, and
    # each is now the vertex, within 1e-14 of every row
    for seed in range(100, 106):
        for k in (3, 9, 15, 21):
            p0 = _near_capacity_draw(seed, k)
            for scheme in PARTIAL_SCHEMES:
                p = replace(p0, L=_scheme_capacity(p0, scheme))
                rep = run_benchmark(scheme, p)
                _assert_certified(rep, p)
                assert rep.dual is None
                assert rep.feasibility.max_violation <= 1e-14


def test_capacity_vertex_yields_to_the_ascent_where_it_is_not_unique(monkeypatch):
    # dead channels give r01(P_u_max) = rho_a = 0: both routes close, and
    # the vertex is all-local, with or without the helper
    dead = desk_params(T=0.05, h01=1e-30, h0=1e-30, h1=1e-30)
    for helper in (True, False):
        vertex = capacity_point(dead, helper=helper)
        assert vertex.l_u == l_u_max(dead)
        assert vertex.l_h == vertex.l_a == vertex.tau1 == vertex.tau2 == vertex.tau3 == 0.0
    # a tie of the direct link and the relay leaves a segment of AP
    # routes: the ascent answers, as it did before the vertex. The cold
    # face solve certifies this op too; it is turned off so that the
    # ascent's own certificate stays covered here
    real = coopmec.model._ap_route
    monkeypatch.setattr(coopmec.model, "_ap_route",
                        lambda p: (real(p)[0], None, *real(p)[2:]))
    p = desk_params(T=0.05)
    p = replace(p, L=lmax_partial(p))
    assert capacity_point(p) is None
    no_cold_attempt(monkeypatch)
    runs = _count_runs(monkeypatch)
    rep = solve_p1(p)
    _assert_certified(rep, p)
    assert len(runs) == 1 and rep.iterations > 0 and rep.dual is not None


#: gains that kill routes: all three links, the AP links, the helper link
DEAD_CHANNELS = {
    "all": dict(h01=1e-30, h0=1e-30, h1=1e-30),
    "h0-h1": dict(h0=1e-30, h1=1e-30),
    "h01": dict(h01=1e-30),
}


@pytest.mark.parametrize("scheme", PARTIAL_SCHEMES)
@pytest.mark.parametrize("dead", DEAD_CHANNELS)
def test_dead_routes_close_at_capacity(scheme, dead):
    # a route whose link carries no bits at full power closes, so the
    # capacity vertex answers with no ascent; an ascent would run to
    # MAX_ITER on six of these nine ops, where no dual certifies
    p0 = desk_params(T=0.05, **DEAD_CHANNELS[dead])
    p = replace(p0, L=_scheme_capacity(p0, scheme))
    rep = run_benchmark(scheme, p)
    _assert_certified(rep, p)
    assert rep.iterations == 0 and rep.dual is None
    a = rep.allocation
    assert a.l_u == l_u_max(p)
    if dead != "h0-h1":  # only the helper link is alive there
        assert a.l_h == a.tau1 == 0.0
    assert a.l_a == a.tau2 == a.tau3 == 0.0


#: the fractions of capacity the near-capacity random draws cycle through
NEAR_CAPACITY_FRACS = (0.99, 0.999, 0.9999, 1.0, 1e-6, 1e-9)


def _near_capacity_draw(seed: int, k: int):
    """Draw k of `random_params(rng, frac=NEAR_CAPACITY_FRACS[k % 6])`."""
    rng = np.random.default_rng(seed)
    for j in range(k + 1):
        p = random_params(rng, frac=NEAR_CAPACITY_FRACS[j % 6])
    return p


def test_joint_partial_certifies_seed_103_draw_13():
    # L = 0.999 of capacity: the run restarted again and again, and it
    # ended nonconverged at the cap with no recoverable allocation. The
    # ascent's own recovery certified 1.2311772195 J at gap 1.9e-7, a
    # bracket [1.2311769903, 1.2311772195] that holds the face solve's
    # energy pinned here
    p = _near_capacity_draw(103, 13)
    rep = solve_p1(p)
    _assert_certified(rep, p)
    assert rep.iterations < MAX_ITER
    assert rep.energy == pytest.approx(1.2311769903, rel=1e-9)


def test_comp_partial_certifies_seed_105_draw_8():
    # L = 0.9999 of the comp-partial capacity l_u_max + l_h_max: the same
    # ending, nonconverged at the cap with no recoverable allocation. The
    # ascent's own recovery certified 3.7184001538 J at gap 4.9e-8, a
    # bracket [3.7183999725, 3.7184001538] that holds the energy pinned here
    p = _near_capacity_draw(105, 8)
    cap = lmax_binary(p)
    p = replace(p, L=0.9999 * (cap.l_u_max + cap.l_h_max))
    rep = run_benchmark("comp-partial", p)
    _assert_certified(rep, p)
    assert rep.iterations < MAX_ITER
    assert rep.energy == pytest.approx(3.7183999725, rel=1e-9)


@pytest.mark.parametrize("rest,label", [
    (FULL, "joint-partial"),
    (Restriction(helper_path=False), "comm-partial"),
])
def test_solve_stops_on_the_certificate_not_the_caps(rest, label):
    # both passes used to run to their caps (7500 iterations) here
    rep = solve_restricted(desk_params(T=0.1), rest, label)
    assert rep.ok
    assert rep.iterations < MAX_ITER


def test_solve_restricted_comp_partial_structure(p_default):
    rest = Restriction(relay_path=False)
    rep = solve_restricted(desk_params(T=0.03), rest, "comp-partial")
    assert rep.ok
    a = rep.allocation
    assert a.l_a == 0.0
    assert a.tau2 == 0.0 and a.tau3 == 0.0
    assert a.l_u + a.l_h == pytest.approx(a.l_u + a.l_h + a.l_a, rel=1e-12)


def test_solve_restricted_comm_partial_structure():
    rest = Restriction(helper_path=False)
    rep = solve_restricted(desk_params(T=0.03), rest, "comm-partial")
    assert rep.ok
    a = rep.allocation
    assert a.tau1 == 0.0
    assert a.l_h == 0.0


def _count_runs(monkeypatch):
    """Record the result of every ellipsoid run from here on."""
    runs = []
    real = coopmec.p1.ell.ellipsoid_run

    def run(*args, **kwargs):
        res = real(*args, **kwargs)
        runs.append(res)
        return res

    monkeypatch.setattr(coopmec.p1.ell, "ellipsoid_run", run)
    return runs


@pytest.mark.parametrize("rest,label,frac,desk", [
    (FULL, "joint-partial", 0.5, {}),
    (Restriction(relay_path=False), "comp-partial", 0.5, {}),
    (Restriction(helper_path=False), "comm-partial", 0.5, {}),
    # at capacity the vertex answers with no run (a run that restarts is
    # in test_breakdown_checkpoint_certifies_before_the_cap)
    (Restriction(helper_path=False), "comm-partial", 1.0, {"D": 240.0}),
])
def test_one_ellipsoid_run_per_solve(monkeypatch, rest, label, frac, desk):
    # at most one run; none where the cold face solve certifies (joint-
    # and comm-partial at 0.5), which then reports its own dual
    p = desk_params(T=0.05, **desk)
    p = replace(p, L=frac * _scheme_capacity(p, label))
    runs = _count_runs(monkeypatch)
    rep = solve_restricted(p, rest, label)
    assert rep.ok
    assert len(runs) <= (frac < 1.0)
    assert rep.iterations == sum(r.iterations for r in runs) < MAX_ITER
    if frac < 1.0 and not runs:
        assert rep.iterations == 0 and rep.dual is not None


@pytest.mark.parametrize("seed,k", [(100, 8), (103, 14)])
def test_breakdown_checkpoint_certifies_before_the_cap(monkeypatch, seed, k):
    # joint-partial at 0.9999 of capacity (near-capacity batch draws): the
    # shape matrix breaks down and the run restarts. Each breakdown offers
    # the best point to the checkpoint as the center too, no dual point is
    # recovered twice, and the one run certifies before the cap. The cold
    # face solve certifies draw 100/8; it is turned off so that the
    # breakdown checkpoint stays covered here
    no_cold_attempt(monkeypatch)
    recovered, breakdowns = [], []
    real_recover = coopmec.p1.recover_primal
    monkeypatch.setattr(coopmec.p1, "recover_primal",
                        lambda d, p, rest: recovered.append(d) or real_recover(d, p, rest))
    real_run = coopmec.p1.ell.ellipsoid_run

    def run(*args, checkpoint, **kwargs):
        def watched(center, point, value):
            breakdowns.append(center is point)
            return checkpoint(center, point, value)
        return real_run(*args, checkpoint=watched, **kwargs)

    monkeypatch.setattr(coopmec.p1.ell, "ellipsoid_run", run)
    runs = _count_runs(monkeypatch)
    p = _near_capacity_draw(seed, k)
    rep = solve_p1(p)
    _assert_certified(rep, p)
    assert len(runs) == 1 and rep.iterations < MAX_ITER
    assert any(breakdowns)
    assert len(set(recovered)) == len(recovered)


def test_rejected_face_solve_keeps_the_run_ascending(monkeypatch):
    # the first KKT check is the first checkpoint's face solve; failing it
    # discards that answer, the ascent goes on, and a later checkpoint
    # certifies under the full certificate
    p = desk_params(T=0.05)
    clean = solve_p1(p)
    real = coopmec.p1.max_kkt_residual
    calls = []

    def first_fails(a, d, p):
        calls.append(d)
        return np.inf if len(calls) == 1 else real(a, d, p)

    monkeypatch.setattr(coopmec.p1, "max_kkt_residual", first_fails)
    runs = _count_runs(monkeypatch)
    rep = solve_p1(p)
    assert len(runs) == 1 and runs[0].converged and len(calls) > 1
    assert clean.iterations < rep.iterations < MAX_ITER
    assert rep.status == STATUS_OPTIMAL
    _assert_certified(rep, p)


def test_uncertified_run_ends_at_the_cap_with_the_best_point(monkeypatch):
    # no allocation passes the KKT bound, so no checkpoint certifies: the
    # run goes to the cap, and the answer is the recovery at its best point
    monkeypatch.setattr(coopmec.p1, "MAX_ITER", 1000)
    monkeypatch.setattr(coopmec.p1, "max_kkt_residual", lambda a, d, p: np.inf)
    recoveries = []
    real = coopmec.p1.recover_primal
    monkeypatch.setattr(coopmec.p1, "recover_primal",
                        lambda d, p, rest: recoveries.append(d) or real(d, p, rest))
    runs = _count_runs(monkeypatch)
    p = desk_params(T=0.1)
    rep = solve_restricted(p, FULL, "joint-partial")

    assert len(runs) == 1 and len(recoveries) > 1  # checkpoints recovered
    res = runs[0]
    assert res.iterations == 1000 and not res.converged
    assert rep.status == STATUS_NONCONVERGED and rep.iterations == 1000
    assert rep.dual == FULL.expand(res.best_point) == recoveries[-1]
    alloc = recover_primal(rep.dual, p)
    assert rep.energy == total_energy(alloc, p)
    assert rep.duality_gap <= GAP_TOL  # certified but for the KKT bound


def _fig4_partial_ops():
    """The dual-pipeline ops of the figure-4 sweep: joint-, comp- and
    comm-partial at T = 10, 20, ..., 100 ms on the desk defaults."""
    sc = Scenario(sweep_param="T", sweep_from=10.0, sweep_to=100.0, sweep_steps=10)
    return [(scheme, sc.at_sweep_value(T)) for T in sc.sweep_values()
            for scheme in ("joint-partial", "comp-partial", "comm-partial")]


def _edge_partial_ops():
    """The capacity-edge ops of the dual-pipeline schemes below capacity:
    joint-, comp- and comm-partial at 0.999 and 1e-6 of their capacity on
    each edge template."""
    return [(scheme, replace(make(), L=frac * _scheme_capacity(make(), scheme)))
            for make in EDGE_TEMPLATES.values() for scheme in PARTIAL_SCHEMES
            for frac in (0.999, 1e-6)]


def _relay_closed(a) -> bool:
    return a.tau1 > 0.0 and a.tau2 == a.tau3 == a.l_a == 0.0


def test_cold_attempt_changes_no_answer(monkeypatch):
    # each op of the acceptance batch, of figure 4's partial points and of
    # the capacity-edge partial ops below capacity is solved with the cold
    # face solves and without them: the same status and energy (within
    # 1e-12 relative; 1.0e-14 measured), and where every cold start fails
    # the ascent makes the same iterations as without them
    rng = np.random.default_rng(20250808)
    ops = ([("joint-partial", random_params(rng)) for _ in range(50)]
           + _fig4_partial_ops() + _edge_partial_ops())
    attempts = []
    real = coopmec.p1._cold_attempt
    monkeypatch.setattr(coopmec.p1, "_cold_attempt",
                        lambda *args: attempts.append(real(*args)) or attempts[-1])
    with_cold = [run_benchmark(scheme, p) for scheme, p in ops]
    assert len(attempts) == len(ops)
    no_cold_attempt(monkeypatch)
    for (scheme, p), rep, cold in zip(ops, with_cold, attempts):
        ref = run_benchmark(scheme, p)
        assert rep.status == ref.status == STATUS_OPTIMAL
        assert rep.energy == pytest.approx(ref.energy, rel=1e-12, abs=0.0)
        if cold is None:
            assert rep.iterations == ref.iterations > 0
        else:
            assert rep is cold and rep.iterations == 0
            _assert_certified(rep, p)
    # 48 of the batch, 24 of figure 4 and 20 of the 24 edge ops measured;
    # 16 are joint-partial answers on the helper-only face
    assert sum(cold is not None for cold in attempts) >= 92
    assert sum(cold is not None and scheme == "joint-partial" and _relay_closed(cold.allocation)
               for (scheme, _), cold in zip(ops, attempts)) >= 14


def test_direct_link_points_certify_cold():
    # acceptance ops #23 and #39, and the strong direct link at 0.999 of
    # capacity in joint- and comm-partial, sit on the direct-link face:
    # tau3 closed and lam2 = 0. Each certifies cold from that start, and
    # at its dual sub3 keeps tau3 closed (rho3 >= 0)
    rng = np.random.default_rng(20250808)
    batch = [random_params(rng) for _ in range(50)]
    strong = EDGE_TEMPLATES["direct-link-strong"]()
    ops = [("joint-partial", batch[23]), ("joint-partial", batch[39])] + [
        (scheme, replace(strong, L=0.999 * _scheme_capacity(strong, scheme)))
        for scheme in ("joint-partial", "comm-partial")]
    for scheme, p in ops:
        rep = run_benchmark(scheme, p)
        _assert_certified(rep, p)
        assert rep.certified_by == "cold-direct" and rep.iterations == 0
        assert rep.allocation.tau2 > 0.0 and rep.allocation.l_a > 0.0
        assert rep.allocation.tau3 == 0.0 and rep.dual.lam2 == 0.0
        sub = solve_sub3(rep.dual, p)
        assert sub["rho3"] >= 0.0 and sub["tau3"] == 0.0


#: per workload, how a round's reports were obtained (SolveReport.
#: certified_by), and the ascent's ops and iterations among them
PATHS_PER_ROUND = {
    "acceptance-batch": ({"cold-generic": 34, "cold-helper": 6, "cold-scaled": 6,
                          "cold-direct": 2, "checkpoint-face": 2}, 2, 555),
    "fig4-sweep": ({"cold-generic": 5, "cold-helper": 15, "cold-scaled": 4,
                    "checkpoint-face": 6, "closed-form": 17, "1-d-search": 22, "": 1}, 6, 1203),
    "capacity-edge": ({"vertex": 12, "cold-generic": 9, "cold-helper": 9, "cold-direct": 2,
                       "checkpoint-face": 4, "1-d-search": 12}, 4, 1580),
}


def test_reports_name_their_path():
    # every op of the three benchmark workloads names how its report was
    # obtained: an ascent op names the checkpoint's face solve (or the
    # recovery), any other op a path that makes no iterations, and only
    # an infeasible report names none
    rng = np.random.default_rng(20250808)
    sc = Scenario(sweep_param="T", sweep_from=10.0, sweep_to=100.0, sweep_steps=10)
    workloads = {
        "acceptance-batch": [("joint-partial", random_params(rng)) for _ in range(50)],
        "fig4-sweep": [(scheme, sc.at_sweep_value(T)) for T in sc.sweep_values()
                       for scheme in sc.schemes],
        "capacity-edge": [(scheme, replace(make(), L=frac * _scheme_capacity(make(), scheme)))
                          for make in EDGE_TEMPLATES.values()
                          for scheme in PARTIAL_SCHEMES + ("comm-binary",)
                          for frac in (1.0, 0.999, 1e-6)],
    }
    assert [name for name, _ in COLD_STARTS] == [n for n in CERTIFIED_BY if n.startswith("cold-")]
    for name, ops in workloads.items():
        reports = [run_benchmark(scheme, p) for scheme, p in ops]
        for rep in reports:
            assert rep.certified_by in CERTIFIED_BY + ("",)
            assert (rep.certified_by == "") == (rep.status == STATUS_INFEASIBLE)
            ascent = rep.certified_by in ("checkpoint-face", "recovery")
            assert (rep.iterations > 0) == ascent
        paths, ascent_ops, iterations = PATHS_PER_ROUND[name]
        assert Counter(rep.certified_by for rep in reports) == paths
        assert sum(rep.iterations > 0 for rep in reports) == ascent_ops
        assert sum(rep.iterations for rep in reports) == iterations


def test_helper_only_points_certify_cold():
    # figure 4's comp-partial points, and its joint-partial points from
    # T = 50 ms up, sit on the helper-only face: tau1 open, relay closed,
    # deadline slack. Each certifies cold. At its dual the closed relay
    # stays closed (sub2 and sub3 keep tau2 and tau3 at 0), and with the
    # relay open in the restriction the l_a coefficient is 0 (exactly, as
    # measured)
    sc = Scenario(sweep_param="T", sweep_from=10.0, sweep_to=100.0, sweep_steps=10)
    ops = [(scheme, sc.at_sweep_value(T)) for T in sc.sweep_values()
           for scheme in ("comp-partial", "joint-partial") if scheme == "comp-partial" or T >= 50.0]
    assert len(ops) == 16
    for scheme, p in ops:
        rep = run_benchmark(scheme, p)
        _assert_certified(rep, p)
        assert rep.iterations == 0 and _relay_closed(rep.allocation)
        assert rep.dual.mu1 == 0.0
        assert solve_sub2(rep.dual, p)["tau2"] == solve_sub3(rep.dual, p)["tau3"] == 0.0
        if scheme == "joint-partial":
            assert abs(rep.dual.bounded_below_slack(p)) <= 1e-15 * rep.dual.mu2


def test_kept_reports_stay_small():
    # bytes a kept solve_p1 report retains (tracemalloc) on the acceptance
    # batch, beyond what the same solves retain when their reports are
    # dropped: 650-680 measured, against about 940 when an allocation
    # stored its derived fields and a report its ConstraintReport
    rng = np.random.default_rng(20250808)
    batch = [random_params(rng) for _ in range(50)]
    for p in batch:
        solve_p1(p)
    kept = [None] * len(batch)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for p in batch:
            solve_p1(p)
        gc.collect()
        dropped = tracemalloc.get_traced_memory()[0] - base
        for i, p in enumerate(batch):
            kept[i] = solve_p1(p)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base - 2 * dropped
    finally:
        tracemalloc.stop()
    assert retained / len(batch) <= 750


def test_reports_compute_their_residuals_on_demand(monkeypatch):
    # a report keeps its largest violation and recomputes the residuals
    # from its allocation: the same dict as a fresh check, float for float.
    # Face-solved, vertex, closed-form (p2) and nonconverged reports
    p = desk_params(T=0.05)
    at_cap = replace(p, L=lmax_partial(p))
    reports = [(solve_p1(p), p), (solve_p1(at_cap), at_cap),
               (mode_local(desk_params(T=0.05, L=1e3)), desk_params(T=0.05, L=1e3))]
    monkeypatch.setattr(coopmec.p1, "MAX_ITER", 50)
    monkeypatch.setattr(coopmec.p1, "max_kkt_residual", lambda a, d, p: np.inf)
    reports.append((solve_p1(p), p))
    assert [rep.status for rep, _ in reports] == [STATUS_OPTIMAL] * 3 + [STATUS_NONCONVERGED]
    for rep, q in reports:
        fresh = check_feasible(rep.allocation, q)
        assert rep.feasibility.residuals == fresh.residuals
        assert rep.feasibility.max_violation == fresh.max_violation == max(
            0.0, *fresh.residuals.values())
        assert rep.feasibility.allocation is rep.allocation
