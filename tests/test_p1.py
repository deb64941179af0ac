from dataclasses import astuple, replace

import numpy as np
import pytest

import coopmec.p1
from coopmec.bench import run_benchmark
from coopmec.dual import FULL, DualPoint, Restriction, solve_sub2, solve_sub3
from coopmec.model import check_feasible, r0, r01, r1, total_energy
from coopmec.oracle import max_kkt_residual, oracle_p11
from coopmec.p1 import (
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
from coopmec.p2 import lmax_binary
from conftest import desk_params, random_params


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
    """A capacity from scipy's HiGHS, written with inequalities only: every
    route, CPU and the block within its limits, and the bits named in
    `pinned` (of l_u, l_h, l_a) held at zero with the slots that carry them."""
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
    return -res.fun


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
    # one optimum, so two certified energies differ by at most their gaps
    rng = np.random.default_rng(1234)
    for p in [random_params(rng) for _ in range(4)]:
        for scheme in ("joint-partial", "comp-partial", "comm-binary"):
            rep = run_benchmark(scheme, p)
            for k in (1e-3, 1e3):
                rep_k = run_benchmark(scheme, _rescaled_bits(p, k))
                assert rep_k.status == rep.status
                if rep.ok:
                    bound = rep.duality_gap * rep.energy + rep_k.duality_gap * rep_k.energy
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
    assert rep.iterations > 0


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
                        lambda prob: calls.append(prob) or real(prob))
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
    assert rep.duality_gap <= GAP_TOL
    assert max_kkt_residual(rep.allocation, rep.dual, p) <= 1e-6
    assert check_feasible(rep.allocation, p).feasible(1e-9)


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


@pytest.mark.parametrize("scheme,template", [
    ("comm-partial", "direct-link-strong"),
    ("comm-partial", "helper-near-ap"),
    ("comm-partial", "random"),
    ("comp-partial", "helper-near-user"),
    ("comp-partial", "random"),
    ("joint-partial", "helper-near-ap"),
    ("joint-partial", "helper-near-user"),
    ("joint-partial", "random"),
])
def test_certifies_at_capacity_before_the_cap(monkeypatch, scheme, template):
    # at L = capacity the shape matrix loses positive definiteness and the
    # run restarts; these ran to MAX_ITER while the recovery at the best
    # point, offered to the checkpoint only after the cap, already
    # certified. A breakdown offers the best point as the center too, and
    # no dual point is recovered twice
    recovered = []
    real = coopmec.p1.recover_primal
    monkeypatch.setattr(coopmec.p1, "recover_primal",
                        lambda d, p, rest: recovered.append(d) or real(d, p, rest))
    p = EDGE_TEMPLATES[template]()
    p = replace(p, L=_scheme_capacity(p, scheme))
    rep = run_benchmark(scheme, p)
    _assert_certified(rep, p)
    assert rep.iterations < MAX_ITER
    assert len(set(recovered)) == len(recovered)


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
    # ended nonconverged at the cap with no recoverable allocation. With the
    # LP capacity L was one ulp larger and the solve certified 1.2311774782 J
    # at gap 4.0e-7, a bracket that holds the energy pinned here
    p = _near_capacity_draw(103, 13)
    rep = solve_p1(p)
    _assert_certified(rep, p)
    assert rep.iterations < MAX_ITER
    assert rep.energy == pytest.approx(1.2311772191, rel=1e-9)


def test_comp_partial_certifies_seed_105_draw_8():
    # L = 0.9999 of the comp-partial capacity l_u_max + l_h_max: the same
    # ending, nonconverged at the cap with no recoverable allocation
    p = _near_capacity_draw(105, 8)
    cap = lmax_binary(p)
    p = replace(p, L=0.9999 * (cap.l_u_max + cap.l_h_max))
    rep = run_benchmark("comp-partial", p)
    _assert_certified(rep, p)
    assert rep.iterations < MAX_ITER
    assert rep.energy == pytest.approx(3.7184001530, rel=1e-9)


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
    # at capacity: the shape matrix breaks down and the run restarts
    (Restriction(helper_path=False), "comm-partial", 1.0, {"D": 240.0}),
])
def test_one_ellipsoid_run_per_solve(monkeypatch, rest, label, frac, desk):
    p = desk_params(T=0.05, **desk)
    p = replace(p, L=frac * _scheme_capacity(p, label))
    runs = _count_runs(monkeypatch)
    rep = solve_restricted(p, rest, label)
    assert rep.ok
    assert len(runs) == 1
    assert rep.iterations == runs[0].iterations < MAX_ITER


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
