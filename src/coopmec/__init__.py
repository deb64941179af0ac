"""Energy-optimal joint computation/communication cooperation for a
three-node mobile-edge-computing system (user, helper, AP)."""

from .model import (
    Allocation,
    ConstraintReport,
    Geometry,
    SystemParams,
    check_feasible,
    db_to_linear,
    dbm_to_watts,
    lmax_binary,
    lmax_partial,
    local_compute_energy,
    pathloss,
    rate,
    total_energy,
)
from .lp import lp_solve
from .dual import DualPoint, Restriction, SubproblemSolution
from .ellipsoid import CutOracleResult, ellipsoid_run
from .p1 import SolveReport, recover_primal, solve_p1
from .p2 import mode_comm_coop, mode_comp_coop, mode_local, solve_p2
from .bench import SCHEME_LABELS, run_benchmark
from .oracle import kkt_residuals, oracle_comm_coop, oracle_p11
from .scenario import Scenario, ScenarioError, load_scenario
from .cli import run_sweep

__all__ = [
    "Allocation",
    "ConstraintReport",
    "CutOracleResult",
    "DualPoint",
    "Geometry",
    "Restriction",
    "SCHEME_LABELS",
    "Scenario",
    "ScenarioError",
    "SolveReport",
    "SubproblemSolution",
    "SystemParams",
    "check_feasible",
    "db_to_linear",
    "dbm_to_watts",
    "ellipsoid_run",
    "kkt_residuals",
    "lmax_binary",
    "lmax_partial",
    "load_scenario",
    "local_compute_energy",
    "lp_solve",
    "mode_comm_coop",
    "mode_comp_coop",
    "mode_local",
    "oracle_comm_coop",
    "oracle_p11",
    "pathloss",
    "rate",
    "recover_primal",
    "run_benchmark",
    "run_sweep",
    "solve_p1",
    "solve_p2",
    "total_energy",
]

__version__ = "0.1.0"
