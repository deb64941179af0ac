"""Command-line interface: single solves, sweeps to CSV, capacity and
oracle verification runs.

Exit codes: 0 success, 1 every sweep point infeasible, 2 configuration
error, 3 nonconvergence in a requested solve, 4 solver fault.
"""

from __future__ import annotations

import argparse
import sys

from .bench import SCHEME_LABELS, run_benchmark
from .dual import DualInfeasibleError
from .ellipsoid import OracleError
from .model import InfeasibleWindowError, fits, lmax_binary, lmax_partial
from .oracle import oracle_p11
from .p1 import STATUS_INFEASIBLE, STATUS_NONCONVERGED, RecoveryError, SolveReport
from .scenario import Scenario, ScenarioError, load_scenario

CSV_COLUMNS = (
    "sweep_param,value,scheme,status,energy_J,l_u,l_h,l_a,"
    "tau1,tau2,tau3,tau4,P1,P2,P3,duality_gap,iterations"
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_SOLVER_FAULT = 4

#: raised by the solver itself, never by a bad config; the first three are
#: ValueError subclasses, so they must be caught before configuration errors
_SOLVER_FAULTS = (OracleError, DualInfeasibleError, InfeasibleWindowError, RecoveryError)


def _fmt(v: float) -> str:
    return f"{float(v):.12g}"


def _csv_row(sweep_param: str, value: float, scheme: str, rep: SolveReport) -> str:
    a = rep.allocation
    if a is None:
        body = ",".join(["nan"] * 11)
        gap = "nan"
    else:
        fields = (rep.energy, a.l_u, a.l_h, a.l_a, a.tau1, a.tau2, a.tau3,
                  a.tau4, a.P1, a.P2, a.P3)
        body = ",".join(_fmt(v) for v in fields)
        gap = _fmt(rep.duality_gap)
    return (f"{sweep_param},{_fmt(value)},{scheme},{rep.status},"
            f"{body},{gap},{rep.iterations}")


def run_sweep(sc: Scenario, out_path: str) -> list[SolveReport]:
    """Solve every (sweep point, scheme) pair and write the CSV.

    Rows are emitted in ascending sweep order, schemes in the stable
    label order; infeasible points are recorded, never fatal.
    """
    sc.validate()
    if sc.sweep_param is None:
        raise ScenarioError("sweep requires sweep_param/sweep_from/sweep_to")
    lines = [CSV_COLUMNS]
    reports: list[SolveReport] = []
    for value in sc.sweep_values():
        p = sc.at_sweep_value(value)
        for scheme in sc.schemes:
            rep = run_benchmark(scheme, p)
            reports.append(rep)
            lines.append(_csv_row(sc.sweep_param, value, scheme, rep))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return reports


def _cmd_solve(args) -> int:
    sc = load_scenario(args.config)
    p = sc.system_params()
    rep = run_benchmark(args.scheme, p)
    print(f"scheme:      {args.scheme}")
    print(f"status:      {rep.status}")
    if rep.l_max is not None:
        print(f"capacity:    {_fmt(rep.l_max)} bits")
    if rep.allocation is not None:
        a = rep.allocation
        print(f"energy_J:    {_fmt(rep.energy)}")
        print(f"duality_gap: {_fmt(rep.duality_gap)}")
        print(f"iterations:  {rep.iterations}")
        print(f"mode:        {rep.mode_label}")
        print(f"certified_by: {rep.certified_by}")
        print(f"bits:        l_u={_fmt(a.l_u)} l_h={_fmt(a.l_h)} l_a={_fmt(a.l_a)}")
        print(f"slots_s:     tau1={_fmt(a.tau1)} tau2={_fmt(a.tau2)} "
              f"tau3={_fmt(a.tau3)} tau4={_fmt(a.tau4)}")
        print(f"powers_W:    P1={_fmt(a.P1)} P2={_fmt(a.P2)} P3={_fmt(a.P3)}")
    if rep.status == STATUS_INFEASIBLE:
        return EXIT_INFEASIBLE
    if rep.status == STATUS_NONCONVERGED:
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_sweep(args) -> int:
    sc = load_scenario(args.config)
    reports = run_sweep(sc, args.out)
    print(f"wrote {args.out}: {len(reports)} rows")
    if all(r.status == STATUS_INFEASIBLE for r in reports):
        return EXIT_INFEASIBLE
    if any(r.status == STATUS_NONCONVERGED for r in reports):
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_feascheck(args) -> int:
    sc = load_scenario(args.config)
    p = sc.system_params()
    l1 = lmax_partial(p)
    cap = lmax_binary(p)
    print(f"L:            {_fmt(p.L)} bits")
    print(f"L_max_partial: {_fmt(l1)} bits")
    print(f"L_max_binary:  {_fmt(cap.L_max2)} bits "
          f"(local={_fmt(cap.l_u_max)} helper={_fmt(cap.l_h_max)} ap={_fmt(cap.l_a_max)})")
    partial = fits(p.L, l1)
    print(f"partial_feasible: {partial}")
    print(f"binary_feasible:  {fits(p.L, cap.L_max2)}")
    return EXIT_OK if partial else EXIT_INFEASIBLE


def _cmd_verify(args) -> int:
    sc = load_scenario(args.config)
    p = sc.system_params()
    rep = run_benchmark("joint-partial", p)
    if rep.status == STATUS_INFEASIBLE:
        print("status: infeasible")
        return EXIT_INFEASIBLE
    ora = oracle_p11(p, budget=args.budget, seed=args.seed)
    if not ora.feasible:
        print("oracle: no feasible point found")
        return EXIT_NONCONVERGED
    rel = abs(rep.energy - ora.energy) / max(ora.energy, 1e-30)
    print(f"solver_energy_J: {_fmt(rep.energy)}")
    print(f"oracle_energy_J: {_fmt(ora.energy)}")
    print(f"rel_difference:  {_fmt(rel)}")
    print(f"duality_gap:     {_fmt(rep.duality_gap)}")
    if rep.status == STATUS_NONCONVERGED:
        return EXIT_NONCONVERGED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coopmec",
        description="Energy-optimal three-node MEC cooperation solver",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve one scheme at the configured point")
    s.add_argument("--config", required=True)
    s.add_argument("--scheme", default="joint-partial", choices=SCHEME_LABELS)
    s.set_defaults(fn=_cmd_solve)

    s = sub.add_parser("sweep", help="sweep T/L/D and write one CSV row per point and scheme")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_sweep)

    s = sub.add_parser("feascheck", help="report computation capacities and feasibility")
    s.add_argument("--config", required=True)
    s.set_defaults(fn=_cmd_feascheck)

    s = sub.add_parser("verify", help="compare the solver against the slow grid oracle")
    s.add_argument("--config", required=True)
    s.add_argument("--budget", type=int, default=3)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=_cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _SOLVER_FAULTS as exc:
        print(f"error: solver fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAULT
    except (ScenarioError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
