"""Benchmark schemes: restrictions of the joint-cooperation problem.

Stable CLI labels, in reporting order:

  local         all bits computed at the user
  comp-partial  split between user and helper (no AP)
  comm-partial  split between user and AP (no helper computing)
  comp-binary   whole task at the helper
  comm-binary   whole task at the AP
  joint-partial full three-way split (the partial-offloading optimum)
  joint-binary  best single node (the binary-offloading optimum)
"""

from __future__ import annotations

from .dual import Restriction
from .model import SystemParams
from .p1 import STATUS_INFEASIBLE, SolveReport, solve_p1, solve_restricted
from .p2 import lmax_binary, mode_comp_coop, mode_comm_coop, mode_local, solve_p2

SCHEME_LABELS = (
    "local",
    "comp-partial",
    "comm-partial",
    "comp-binary",
    "comm-binary",
    "joint-partial",
    "joint-binary",
)

COMP_PARTIAL = Restriction(relay_path=False, l_a_pinned=0.0)
COMM_PARTIAL = Restriction(helper_path=False)


def _comp_partial(p: SystemParams) -> SolveReport:
    cap = lmax_binary(p)
    l_max = cap.l_u_max + cap.l_h_max
    if p.L > l_max * (1.0 + 1e-12):
        return SolveReport(status=STATUS_INFEASIBLE, l_max=l_max,
                           mode_label="comp-partial")
    report = solve_restricted(p, COMP_PARTIAL, "comp-partial")
    report.l_max = l_max
    return report


def _comm_partial(p: SystemParams) -> SolveReport:
    cap = lmax_binary(p)
    l_max = cap.l_u_max + cap.l_a_max
    if p.L > l_max * (1.0 + 1e-12):
        return SolveReport(status=STATUS_INFEASIBLE, l_max=l_max,
                           mode_label="comm-partial")
    report = solve_restricted(p, COMM_PARTIAL, "comm-partial")
    report.l_max = l_max
    return report


_DISPATCH = {
    "local": mode_local,
    "comp-partial": _comp_partial,
    "comm-partial": _comm_partial,
    "comp-binary": mode_comp_coop,
    "comm-binary": mode_comm_coop,
    "joint-partial": solve_p1,
    "joint-binary": solve_p2,
}


def run_benchmark(scheme: str, p: SystemParams) -> SolveReport:
    """Solve one scheme; the report carries the scheme label."""
    try:
        fn = _DISPATCH[scheme]
    except KeyError:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected one of {', '.join(SCHEME_LABELS)}"
        ) from None
    return fn(p)
