"""Acceptance suite: one check per shipped guarantee, each printing a
PASS/FAIL line (run with -s or -rA to see them all).

Tolerances are pinned here, not configurable: relative duality gap 1e-5,
solver-vs-oracle 1e-3 (1e-6 for the univariate helper mode), subproblem-vs-grid
1e-6, scaled KKT residuals 1e-6, energy orderings 1e-9, closed-form spot
values 1e-12.
"""

import time

import numpy as np
import pytest

from coopmec.bench import SCHEME_LABELS, run_benchmark
from coopmec.dual import solve_sub1, solve_sub2, solve_sub3, solve_sub4, solve_sub5
from coopmec.oracle import (
    comp_coop_grid,
    max_kkt_residual,
    oracle_comm_coop,
    oracle_p11,
)
from coopmec.p1 import STATUS_INFEASIBLE, lmax_partial, solve_p1
from coopmec.p2 import lmax_binary, mode_comm_coop, mode_comp_coop, mode_local
from conftest import desk_params, random_params
from test_dual import random_dual, sub1_grid_value, sub23_grid_value

SEED = 20250808


def report(num: int, ok: bool, label: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num}: {label}"


@pytest.fixture(scope="module")
def gap_batch():
    """50 random feasible instances solved once; reused by criteria 1 and 4.

    Times are CPU seconds (process time), immune to machine load noise.
    """
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(50):
        p = random_params(rng)
        t0 = time.process_time()
        rep = solve_p1(p)
        out.append((p, rep, time.process_time() - t0))
    return out


@pytest.fixture(scope="module")
def fig4_table():
    """Energy of every scheme on the block-length sweep (L = 0.02 Mbits,
    helper 120 m out), plus extra small-T points for the crossover check."""
    Ts = [0.01, 0.012, 0.015, 0.02, 0.03, 0.04, 0.05, 0.07, 0.085, 0.1]
    table = {}
    for T in Ts:
        p = desk_params(T=T)
        table[T] = {s: run_benchmark(s, p) for s in SCHEME_LABELS}
    return table


def test_criterion_1_duality_gap(gap_batch):
    gaps = [rep.duality_gap for _, rep, _ in gap_batch if rep.ok]
    times = [dt for _, _, dt in gap_batch]
    ok = (
        len(gaps) == len(gap_batch)
        and max(gaps) <= 1e-5
        and max(times) <= 1.0
    )
    report(1, ok, f"duality gap <= 1e-5 on 50 random instances "
                  f"(worst {max(gaps):.2e}, slowest {max(times):.2f} CPU s)")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(20):
        p = random_params(rng)
        rep = solve_p1(p)
        ora = oracle_p11(p, budget=3)
        assert rep.ok and ora.feasible
        worst = max(worst, abs(rep.energy - ora.energy) / ora.energy)
    ok = worst <= 1e-3

    worst_comm = 0.0
    worst_comp = 0.0
    for T in (0.015, 0.02, 0.03, 0.05):
        p = desk_params(T=T)
        comm = mode_comm_coop(p)
        comm_ora = oracle_comm_coop(p, budget=3)
        worst_comm = max(worst_comm, abs(comm.energy - comm_ora.energy) / comm_ora.energy)
        comp = mode_comp_coop(p)
        _, grid_e = comp_coop_grid(p, n=1_000_000)
        worst_comp = max(worst_comp, abs(comp.energy - grid_e) / grid_e)
    ok = ok and worst_comm <= 1e-3 and worst_comp <= 1e-6
    report(2, ok, "oracle equivalence: joint <= 1e-3 "
                  f"(worst {worst:.2e}), relay mode <= 1e-3 (worst {worst_comm:.2e}), "
                  f"helper mode <= 1e-6 (worst {worst_comp:.2e})")


def test_criterion_3_subproblem_grids(p_default):
    rng = np.random.default_rng(SEED + 2)
    p = p_default
    worst = 0.0
    cap = p.T * p.f_u_max / p.c_u
    k4 = p.kappa_u * p.c_u**3 / p.T**2
    grid_l = np.linspace(0.0, cap, 200_001)
    for i in range(100):
        d = random_dual(rng, p)
        pairs = [
            (solve_sub1(d, p)["value"], sub1_grid_value(d, p)),
            (solve_sub2(d, p)["value"], sub23_grid_value(d, p, which=2)),
            (solve_sub3(d, p)["value"], sub23_grid_value(d, p, which=3)),
        ]
        lu = solve_sub4(d, p)
        pairs.append((
            k4 * lu**3 - d.mu2 * lu,
            float((k4 * grid_l**3 - d.mu2 * grid_l).min()),
        ))
        coef = d.bounded_below_slack(p)
        la = solve_sub5(d, p)
        pairs.append((coef * la, min(0.0, coef * p.L)))
        for mine, grid in pairs:
            worst = max(worst, abs(mine - grid) / max(abs(grid), 1e-12))
    ok = worst <= 1e-6
    report(3, ok, f"five subproblem solvers match grid minimizers on 100 dual "
                  f"points (worst rel diff {worst:.2e})")


def test_criterion_4_kkt_residuals(gap_batch, fig4_table):
    # every converged solve that carries a dual certificate: the random
    # batch plus all dual-pipeline schemes across the block-length sweep
    worst = 0.0
    for p, rep, _ in gap_batch:
        if rep.ok:
            worst = max(worst, max_kkt_residual(rep.allocation, rep.dual, p))
    for T, reps in fig4_table.items():
        p = desk_params(T=T)
        for rep in reps.values():
            if rep.ok and rep.dual is not None:
                worst = max(worst, max_kkt_residual(rep.allocation, rep.dual, p))
    ok = worst <= 1e-6
    report(4, ok, f"scaled KKT residuals <= 1e-6 at every converged solve "
                  f"(worst {worst:.2e})")


def test_partition_row_holds_exactly_on_criterion_1_batch(gap_batch):
    # the recovery LP writes l_u + l_h + l_a = L as two inequality rows with
    # no slack between them, so the bits add up to rounding (they were
    # allowed 0.25 FEAS_TOL max(L, 1) short)
    for p, rep, _ in gap_batch:
        if rep.ok:
            a = rep.allocation
            assert abs(a.l_u + a.l_h + a.l_a - p.L) <= 1e-13 * max(p.L, 1.0)


def test_criterion_5_capacity_ordering():
    prev = -np.inf
    ok = True
    for T in np.arange(0.01, 0.1001, 0.01):
        p = desk_params(T=float(T), D=20.0)
        l1 = lmax_partial(p)
        cap = lmax_binary(p)
        ok = ok and l1 >= cap.L_max2
        ok = ok and cap.L_max2 >= cap.l_u_max
        ok = ok and cap.L_max2 >= cap.l_h_max
        ok = ok and cap.L_max2 >= cap.l_a_max
        ok = ok and l1 >= prev
        prev = l1
    report(5, ok, "capacity ordering and monotonicity over T in [0.01, 0.1] s "
                  "at D = 20 m (exact inequalities)")


def test_criterion_6_energy_ordering(fig4_table):
    ok = True
    tables = [fig4_table]
    # task-size sweep at T = 0.15 s
    l_table = {}
    for L in (1e4, 3e4, 6e4, 1e5, 1.5e5):
        p = desk_params(T=0.15, L=L)
        l_table[L] = {s: run_benchmark(s, p) for s in SCHEME_LABELS}
    tables.append(l_table)
    for table in tables:
        for reps in table.values():
            jp = reps["joint-partial"]
            assert jp.ok
            for s in SCHEME_LABELS:
                r = reps[s]
                if r.status == STATUS_INFEASIBLE:
                    continue
                ok = ok and jp.energy <= r.energy * (1.0 + 1e-9)
            jb = reps["joint-binary"]
            if jb.status != STATUS_INFEASIBLE:
                for s in ("local", "comp-binary", "comm-binary"):
                    r = reps[s]
                    if r.status == STATUS_INFEASIBLE:
                        continue
                    ok = ok and jb.energy <= r.energy * (1.0 + 1e-9)
    report(6, ok, "joint-partial minimal overall and joint-binary minimal "
                  "among binary schemes on every sweep point (tol 1e-9)")


def test_criterion_7_monotone_in_T(fig4_table):
    Ts = [T for T in sorted(fig4_table) if T >= 0.02]
    ok = True
    for s in SCHEME_LABELS:
        es = [fig4_table[T][s].energy for T in Ts
              if fig4_table[T][s].status != STATUS_INFEASIBLE]
        ok = ok and all(b <= a * (1.0 + 1e-9) for a, b in zip(es, es[1:]))
    report(7, ok, "every scheme's energy nonincreasing in T over [0.02, 0.1] s")


def test_criterion_8_binary_crossovers(fig4_table):
    # point thresholds are not reproducible (the AP cycles/bit constant is
    # a free choice); existence inside [0.01, 0.1] s is the contract
    def binary_winner(reps):
        cands = {}
        for s in ("local", "comp-binary", "comm-binary"):
            r = reps[s]
            cands[s] = r.energy if r.status != STATUS_INFEASIBLE else np.inf
        return min(cands, key=cands.get)

    winners = {T: binary_winner(fig4_table[T]) for T in sorted(fig4_table)}
    comm_ts = [T for T, w in winners.items() if w == "comm-binary"]
    local_ts = [T for T, w in winners.items() if w == "local"]
    ok = bool(comm_ts) and bool(local_ts) and min(comm_ts) < max(local_ts)
    report(8, ok, f"relay mode wins at small T {comm_ts}, local at large T "
                  f"{local_ts} (existence within [0.01, 0.1] s)")


def test_criterion_9_distance_shape():
    Ds = [20.0, 50.0, 80.0, 110.0, 140.0, 170.0, 200.0, 230.0]
    local, comp, comm = [], [], []
    for D in Ds:
        p = desk_params(T=0.3, L=5e5, D=D)
        local.append(run_benchmark("local", p).energy)
        comp.append(run_benchmark("comp-partial", p).energy)
        comm.append(run_benchmark("comm-partial", p).energy)
    ok = all(v == local[0] for v in local)  # exact: no channel dependence
    ok = ok and all(b >= a * (1.0 - 1e-9) for a, b in zip(comp, comp[1:]))
    diffs = np.diff(comm)
    signs = np.sign(diffs[np.abs(diffs) > 0])
    changes = int(np.sum(np.diff(signs) != 0))
    ok = ok and changes <= 1
    report(9, ok, "distance sweep: local constant, helper split nondecreasing, "
                  f"relay split unimodal ({changes} sign change)")


def test_criterion_10_closed_form_spot_values():
    cap = lmax_binary(desk_params(T=0.05)).l_u_max
    ok = abs(cap - 1e5) <= 1e-12 * 1e5
    rep = mode_local(desk_params(T=0.05, L=2e4))
    ok = ok and abs(rep.energy - 3.2e-3) <= 1e-12 * 3.2e-3
    report(10, ok, f"spot values: local capacity {cap:.6g} bits at T = 50 ms, "
                   f"local energy {rep.energy:.6g} J at L = 2e4")
