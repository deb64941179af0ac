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
from .p2 import _l_h_max, lmax_binary, mode_comm_coop, mode_comp_coop, mode_local, solve_p2

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


def _partial(p: SystemParams, rest: Restriction, label: str, l_max: float) -> SolveReport:
    """Solve a partial scheme under `rest`, or report it infeasible above `l_max`."""
    if p.L > l_max * (1.0 + 1e-12):
        return SolveReport(status=STATUS_INFEASIBLE, l_max=l_max, mode_label=label)
    report = solve_restricted(p, rest, label)
    report.l_max = l_max
    return report


def _comp_partial(p: SystemParams) -> SolveReport:
    l_max = p.T * p.f_u_max / p.c_u + _l_h_max(p)
    return _partial(p, COMP_PARTIAL, "comp-partial", l_max)


def _comm_partial(p: SystemParams) -> SolveReport:
    cap = lmax_binary(p)
    return _partial(p, COMM_PARTIAL, "comm-partial", cap.l_u_max + cap.l_a_max)


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
