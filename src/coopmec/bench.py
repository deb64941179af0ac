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
from .model import SystemParams, l_a_max, l_h_max, l_u_max
from .p1 import SolveReport, solve_p1, solve_restricted, within_capacity
from .p2 import mode_comm_coop, mode_comp_coop, mode_local, solve_p2

SCHEME_LABELS = (
    "local",
    "comp-partial",
    "comm-partial",
    "comp-binary",
    "comm-binary",
    "joint-partial",
    "joint-binary",
)

COMP_PARTIAL = Restriction(relay_path=False)
COMM_PARTIAL = Restriction(helper_path=False)


@within_capacity(lambda p: l_u_max(p) + l_h_max(p), "comp-partial")
def _comp_partial(p: SystemParams) -> SolveReport:
    return solve_restricted(p, COMP_PARTIAL, "comp-partial")


@within_capacity(lambda p: l_u_max(p) + l_a_max(p), "comm-partial")
def _comm_partial(p: SystemParams) -> SolveReport:
    return solve_restricted(p, COMM_PARTIAL, "comm-partial")


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
