import re

import pytest

import coopmec.cli
from coopmec.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_SOLVER_FAULT,
    main,
    run_sweep,
)
from coopmec.dual import DualInfeasibleError
from coopmec.ellipsoid import OracleError
from coopmec.model import InfeasibleWindowError, lmax_binary, lmax_partial
from coopmec.p1 import RecoveryError
from coopmec.scenario import Scenario, ScenarioError, load_scenario


def cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_default_scheme(tmp_path, capsys):
    rc = main(["solve", "--config", cfg(tmp_path, "T_ms = 40\n")])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "status:      optimal" in out
    assert "energy_J" in out
    assert "certified_by: checkpoint-face" in out  # T = 40 ms still ascends


def test_solve_specific_scheme(tmp_path, capsys):
    rc = main(["solve", "--config", cfg(tmp_path, ""), "--scheme", "local"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "scheme:      local" in out
    assert "certified_by: closed-form" in out
    # default point: 0.02 Mbits in 100 ms locally costs 8e-4 J
    assert "0.0008" in out


def test_solve_infeasible_exit_code(tmp_path, capsys):
    rc = main(["solve", "--config", cfg(tmp_path, "L_Mbits = 100\n")])
    assert rc == EXIT_INFEASIBLE


def test_config_error_exit_code(tmp_path, capsys):
    rc = main(["solve", "--config", cfg(tmp_path, "T_ms = -1\n")])
    assert rc == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    rc = main(["solve", "--config", str(tmp_path / "missing.cfg")])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize(
    "fault", [OracleError, DualInfeasibleError, InfeasibleWindowError, RecoveryError]
)
def test_solver_fault_exit_code(tmp_path, capsys, monkeypatch, fault):
    # three of the four are ValueErrors, yet none is a configuration error
    def broken(scheme, p):
        raise fault("injected")

    monkeypatch.setattr(coopmec.cli, "run_benchmark", broken)
    rc = main(["solve", "--config", cfg(tmp_path, "")])
    assert rc == EXIT_SOLVER_FAULT
    err = capsys.readouterr().err
    assert err.startswith("error: solver fault: ")
    assert "injected" in err


def test_feascheck(tmp_path, capsys):
    rc = main(["feascheck", "--config", cfg(tmp_path, "")])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "L_max_partial" in out
    assert "partial_feasible: True" in out


@pytest.mark.parametrize("over,feasible", [(1e-13, True), (1e-11, False)])
def test_feascheck_agrees_with_solve_just_above_capacity(tmp_path, capsys, over, feasible):
    # a task within 1e-12 above a capacity fits it, in feascheck as in the
    # solvers; feascheck once compared against the bare capacity
    p = load_scenario(cfg(tmp_path, "T_ms = 50\n")).system_params()
    for scheme, key, cap in (("joint-partial", "partial_feasible", lmax_partial(p)),
                             ("joint-binary", "binary_feasible", lmax_binary(p).L_max2)):
        path = cfg(tmp_path, f"T_ms = 50\nL_Mbits = {cap * (1.0 + over) / 1e6!r}\n",
                   name=f"{scheme}.cfg")
        rc = main(["feascheck", "--config", path])
        out = capsys.readouterr().out
        assert re.search(rf"{key}:\s+{feasible}\n", out)
        if scheme == "joint-partial":
            assert rc == (EXIT_OK if feasible else EXIT_INFEASIBLE)
        rc = main(["solve", "--config", path, "--scheme", scheme])
        out = capsys.readouterr().out
        assert rc == (EXIT_OK if feasible else EXIT_INFEASIBLE)
        assert ("status:      infeasible" in out) != feasible


def test_verify_small_budget(tmp_path, capsys):
    rc = main(["verify", "--config", cfg(tmp_path, "T_ms = 40\n"), "--budget", "1"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "rel_difference" in out


def test_sweep_csv_shape(tmp_path):
    text = (
        "sweep_param = T\nsweep_from = 30\nsweep_to = 50\nsweep_steps = 3\n"
        "schemes = local, comp-binary\n"
    )
    out_path = tmp_path / "out.csv"
    rc = main(["sweep", "--config", cfg(tmp_path, text), "--out", str(out_path)])
    assert rc == EXIT_OK
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 1 + 3 * 2
    # ascending sweep order, schemes in stable order within each point
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[1] for r in rows] == ["30", "30", "40", "40", "50", "50"]
    assert [r[2] for r in rows] == ["local", "comp-binary"] * 3
    assert all(r[0] == "T" for r in rows)
    assert all(len(r) == len(CSV_COLUMNS.split(",")) for r in rows)


def test_sweep_deterministic_bytes(tmp_path):
    text = (
        "sweep_param = L\nsweep_from = 0.01\nsweep_to = 0.03\nsweep_steps = 2\n"
        "schemes = local, joint-partial\n"
    )
    c = cfg(tmp_path, text)
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    assert main(["sweep", "--config", c, "--out", str(a_path)]) == EXIT_OK
    assert main(["sweep", "--config", c, "--out", str(b_path)]) == EXIT_OK
    assert a_path.read_bytes() == b_path.read_bytes()


def test_sweep_records_infeasible_rows(tmp_path):
    # tiny blocks cannot carry 0.1 Mbits: rows are recorded, not fatal
    text = (
        "L_Mbits = 0.2\nsweep_param = T\nsweep_from = 5\nsweep_to = 10\n"
        "sweep_steps = 2\nschemes = comp-binary\n"
    )
    out_path = tmp_path / "out.csv"
    rc = main(["sweep", "--config", cfg(tmp_path, text), "--out", str(out_path)])
    assert rc == EXIT_INFEASIBLE
    body = out_path.read_text().strip().split("\n")[1:]
    assert all("infeasible" in ln for ln in body)
    assert all("nan" in ln for ln in body)


def test_sweep_requires_sweep_config(tmp_path):
    rc = main(["sweep", "--config", cfg(tmp_path, ""), "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG


def test_run_sweep_rejects_non_sweep_scenario():
    with pytest.raises(ScenarioError):
        run_sweep(Scenario(), "/tmp/never-written.csv")


def test_sweep_rows_revalidate(tmp_path):
    from coopmec.model import Allocation, check_feasible
    from coopmec.scenario import load_scenario

    text = (
        "sweep_param = T\nsweep_from = 30\nsweep_to = 60\nsweep_steps = 2\n"
        "schemes = joint-partial\n"
    )
    c = cfg(tmp_path, text)
    sc = load_scenario(c)
    out_path = tmp_path / "out.csv"
    main(["sweep", "--config", c, "--out", str(out_path)])
    rows = out_path.read_text().strip().split("\n")[1:]
    for row in rows:
        f = row.split(",")
        value = float(f[1])
        p = sc.at_sweep_value(value)
        alloc = Allocation.build(
            p,
            tau1=float(f[8]), tau2=float(f[9]), tau3=float(f[10]),
            P1=float(f[12]), P2=float(f[13]), P3=float(f[14]),
            l_u=float(f[5]), l_h=float(f[6]), l_a=float(f[7]),
        )
        assert check_feasible(alloc, p).feasible(1e-6)
