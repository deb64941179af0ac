"""Tests of the benchmark's own parts: run with
`python3 -m pytest perfbench/test_perfbench.py` from the repository root."""

import importlib.util
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import coopmec  # noqa: E402
import check  # noqa: E402
import instances  # noqa: E402
from tracer import Tracer  # noqa: E402


def _suite_conftest():
    spec = importlib.util.spec_from_file_location(
        "suite_conftest", ROOT / "tests" / "conftest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_acceptance_batch_is_criterion_1_batch():
    suite = _suite_conftest()
    rng = np.random.default_rng(instances.ACCEPTANCE_SEED)
    expected = [suite.random_params(rng) for _ in range(50)]
    assert instances.acceptance_batch(coopmec, instances.ACCEPTANCE_SEED) == expected


def test_edge_instances_do_not_depend_on_the_seed():
    a = instances.capacity_edge(coopmec, 1)
    b = instances.capacity_edge(coopmec, 2)
    assert sorted(map(repr, a)) == sorted(map(repr, b))
    assert len(a) == 48


@pytest.fixture(scope="module")
def desk_solve():
    p = instances.desk(coopmec, T=0.03, L=2e4)
    return p, coopmec.solve_p1(p)


def test_checker_accepts_a_certified_solve(desk_solve):
    p, rep = desk_solve
    checker = check.Checker(coopmec.oracle.kkt_residuals)
    assert checker.op("joint-partial", p, rep, cross_check=True) == ([], False)


def test_checker_rejects_a_wrong_answer(desk_solve):
    p, rep = desk_solve
    checker = check.Checker(coopmec.oracle.kkt_residuals)
    cheaper = replace(rep, energy=rep.energy * 0.99)
    bad, _ = checker.op("joint-partial", p, cheaper)
    assert any("reported energy" in b for b in bad)
    short = replace(rep, allocation=replace(rep.allocation, l_u=0.5 * rep.allocation.l_u))
    bad, _ = checker.op("joint-partial", p, short)
    assert any("bit_partition" in b for b in bad)
    refused = coopmec.SolveReport(status="infeasible", l_max=rep.l_max)
    bad, _ = checker.op("joint-partial", p, refused)
    assert bad and "infeasible, but" in bad[0]


def test_capacity_lp_matches_the_binary_capacities():
    p = instances.desk(coopmec, T=0.05)
    cap = coopmec.lmax_binary(p)
    assert check.capacity(p, "local") == pytest.approx(cap.l_u_max, rel=1e-12)
    assert check.capacity(p, "comp-binary") == pytest.approx(cap.l_h_max, rel=1e-12)
    assert check.capacity(p, "comm-binary") == pytest.approx(cap.l_a_max, rel=1e-12)


def test_sweep_properties_flag_energy_rising_in_T(desk_solve):
    _, rep = desk_solve
    rows = []
    for T, scale in ((0.02, 1.0), (0.03, 1.5)):
        for scheme in ("local", "comp-binary", "comm-binary", "joint-partial",
                       "joint-binary"):
            rows.append((T, scheme, replace(rep, energy=rep.energy * scale)))
    problems = check.sweep_properties(rows)
    assert all("rose" in msg for msgs in problems.values() for msg in msgs)
    assert len(problems) == 5


def test_tracer_reports_absent_names_and_keeps_running():
    empty = types.ModuleType("coopmec.p1")
    tracer = Tracer()
    tracer.install({"coopmec.p1": empty})
    assert "coopmec.p1.lp_solve" in tracer.absent
    assert "coopmec.ellipsoid.ellipsoid_run" in tracer.absent
    m = tracer.layer_metrics(rounds=1)
    assert m["lp.solves"] == 0 and m["ellipsoid.iterations"] == 0


def test_traced_counts_repeat_exactly():
    p = instances.desk(coopmec, T=0.05, L=2e4)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install({name: sys.modules[name] for name in (
            "coopmec.ellipsoid", "coopmec.p1", "coopmec.p2", "coopmec.bench",
            "coopmec.cli")})
        try:
            tracer.op("comm-binary", coopmec.run_benchmark, "comm-binary", p)
        finally:
            tracer.uninstall()
        m = tracer.layer_metrics(rounds=1)
        counts.append({k: m[k] for k in ("ellipsoid.iterations", "dual.evals",
                                         "lp.solves", "recovery.calls")})
        assert m["ellipsoid.runs"] >= 2 and m["scheme.comm-binary.cpu_s"] > 0
    assert counts[0] == counts[1]
    assert coopmec.p1.lp_solve is coopmec.lp.lp_solve  # uninstalled


def test_metric_names_match_benchmark_json():
    import json

    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = Tracer().layer_metrics(rounds=1)
    layers["capacity.disagreements"] = 0
    assert {(n, run.unit_of(n)) for n in layers} == {
        (m["name"], m["unit"]) for m in spec["per_layer"]}
    ops = [run.Op("local", None, None, float(i)) for i in range(50)]
    e2e = run.end_to_end(ops, [False] * 50, 1, 50, 1.0, 0.1, 40.0)
    assert {(n, unit) for n, (_, unit) in e2e.items()} == {
        (m["name"], m["unit"]) for m in spec["end_to_end"]}
    assert e2e["solve_cpu_tail_s"][0] == 39.0  # ten values beyond it
