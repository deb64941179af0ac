"""Constrained ellipsoid method for maximizing a concave function.

The caller supplies a cut oracle: at a query point it either returns a
supergradient of the objective (objective cut, with the value) or the
gradient of a violated linear constraint and how far it is violated
(feasibility cut). The run has no geometric stop: it ends when the
caller's checkpoint accepts, at a zero supergradient, or at max_iter.

Every cut is a deep cut (Boyd, EE364b ellipsoid method notes). At an
objective cut at x, any maximizer z satisfies g'(z - x) >= best - f(x),
so the cut sits at depth alpha = (best - f(x)) / sqrt(g' A g); at a
feasibility cut, alpha = violation / sqrt(g' A g). With the normalized
cut gt = cut / sqrt(g' A g), the update is

    c <- c - (1 + n alpha)/(n + 1) A gt
    A <- n^2/(n^2 - 1) (1 - alpha^2) (A - 2(1 + n alpha)/((n + 1)(1 + alpha)) A gt gt' A)

The depth is capped at DEEP_CUT_MAX < 1, so the new ellipsoid never
degenerates. The cuts are valid only if the oracle's values are exact:
a value reported above f(x) makes later cuts too deep. At alpha = 0 the
update is the central cut, float for float.

One product g' A g per iteration serves the gap bound, the cut's
normalization (g / -sqrt(g'Ag) is -g / sqrt(g'Ag) bit for bit) and the
test of g (a non-finite entry of g makes g' A g non-finite). The update
A - c (Ag)(Ag)' runs in place, in the formula's order, and keeps A
exactly symmetric (Ag_i Ag_j = Ag_j Ag_i in floating point).

An optional checkpoint lets the caller stop the run on its own
certificate: on an objective cut, each time the relative gap bound
sqrt(g' A g) / |best value| first drops below a new decade (1, then
0.1, and so on), checkpoint(center, best_point, best_value) is called
once, and a True return ends the run as converged. They start at 1: a
caller that solves on the face a checkpoint shows (p1, which runs the
ascent only when its cold face solve fails) needs no more, and an early
checkpoint costs a rejected check, not a wrong answer. The center is the
point that just took the objective cut, so it passed the oracle's
feasibility checks. When the shape matrix breaks down (g' A g not
positive, or not finite), the run restarts around the best point, which
leaves the gap bound too wide for any later decade; so before each
restart the checkpoint is also called, as checkpoint(best_point,
best_point, best_value), and a True return again ends the run. Without
a checkpoint the run does the same float operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

OBJECTIVE_CUT = "objective"
FEASIBILITY_CUT = "feasibility"
#: cap on the depth alpha of a cut, in units of sqrt(g' A g)
DEEP_CUT_MAX = 0.5


class OracleError(ValueError):
    """The cut oracle returned a degenerate (zero/non-finite) cut vector."""


@dataclass
class CutOracleResult:
    kind: str                      # OBJECTIVE_CUT or FEASIBILITY_CUT
    vector: np.ndarray             # supergradient / violated-constraint gradient
    value: float = float("nan")    # objective value for objective cuts
    violation: float = 0.0         # how far the point violates it, feasibility cuts


@dataclass
class EllipsoidResult:
    best_point: np.ndarray | None
    best_value: float
    converged: bool
    iterations: int
    gap_bound: float
    # final ellipsoid: its center and the determinant of its shape matrix
    center: np.ndarray | None = None
    shape_det: float = float("nan")


def ellipsoid_run(
    oracle: Callable[[np.ndarray], CutOracleResult],
    init_center: np.ndarray,
    init_radius: np.ndarray | float,
    max_iter: int = 5000,
    checkpoint: Callable[[np.ndarray, np.ndarray, float], bool] | None = None,
) -> EllipsoidResult:
    """Maximize a concave function over a convex set given by cut oracles.

    init_radius may be a scalar or a per-coordinate vector; the initial
    ellipsoid is the axis-aligned one diag(radius^2) around init_center
    and must contain an optimum. The run takes max_iter iterations unless
    checkpoint (called once per decade of the relative gap bound from 1
    down, as the module docstring describes) returns True or
    a zero supergradient shows the center is a maximizer; either ends it
    with converged=True. Numerical loss of positive definiteness restarts
    the search around the best point with doubled radius; the checkpoint
    gets that point first, and a True return ends the run there. A cut
    vector of the wrong shape or with a non-finite entry raises OracleError.
    """
    center = np.asarray(init_center, dtype=float).copy()
    n = center.size
    radius = np.broadcast_to(np.asarray(init_radius, dtype=float), (n,)).copy()
    if np.any(radius <= 0.0):
        raise ValueError("initial radius must be positive")
    A = np.diag(radius**2)

    best_point: np.ndarray | None = None
    best_value = -np.inf
    gap_bound = np.inf
    converged = False
    restarts = 0
    it = 0
    # the relative gap bound below which the checkpoint fires next; 0.0
    # never fires (no checkpoint, or every representable decade passed)
    decade = 1.0 if checkpoint is not None else 0.0

    # deep-cut update A <- shrink (1 - alpha^2) (A - step (1 + n alpha)/(1 + alpha)
    # (Ag)(Ag)') for n > 1; every factor is exactly 1.0 at alpha = 0
    shrink = n**2 / (n**2 - 1.0) if n > 1 else 1.0
    step = 2.0 / (n + 1.0)
    # the rank-1 update's buffers: A gt and (A gt)(A gt)'
    Ag, outer = np.empty(n), np.empty((n, n))
    while it < max_iter:
        it += 1
        res = oracle(center)
        g = np.asarray(res.vector, dtype=float)
        if g.shape != (n,):
            raise OracleError(f"bad cut vector {res.vector!r}")
        # the same float for the cut -g: negation is exact
        gAg = float(g @ A @ g)
        # a finite gAg needs no finiteness test of g (module docstring)
        if not math.isfinite(gAg) and not np.isfinite(g).all():
            raise OracleError(f"bad cut vector {res.vector!r}")

        if res.kind == OBJECTIVE_CUT:
            if res.value > best_value:
                best_value = res.value
                best_point = center.copy()
            gap_bound = math.sqrt(max(gAg, 0.0))
            if (decade > 0.0 and best_point is not None
                    and gap_bound <= decade * abs(best_value)):
                # skip every decade this bound already passed; the factor
                # underflows to 0.0, so a zero bound or value ends the loop
                while decade > 0.0 and gap_bound <= decade * abs(best_value):
                    decade *= 0.1
                if checkpoint(center, best_point, best_value):
                    converged = True
                    break
            if not (gAg > 0.0) and np.allclose(g, 0.0):
                # zero supergradient: the center is a maximizer
                converged = True
                gap_bound = 0.0
                break
            # keep the halfspace {z : g'(z - center) >= best - value}
            sign, depth = -1.0, best_value - res.value
        elif res.kind == FEASIBILITY_CUT:
            if not g.any():
                raise OracleError("zero feasibility-cut vector")
            sign, depth = 1.0, res.violation
        else:
            raise OracleError(f"unknown cut kind {res.kind!r}")

        if not (gAg > 0.0 and math.isfinite(gAg)):
            # the shape broke down: before the restart throws it away, the
            # checkpoint gets the best point, as the center too
            if (checkpoint is not None and best_point is not None
                    and checkpoint(best_point, best_point, best_value)):
                converged = True
                break
            center, A, restarts = _restart(best_point, center, radius, restarts)
            continue
        root = math.sqrt(gAg)
        alpha = min(depth / root, DEEP_CUT_MAX) if depth > 0.0 else 0.0
        np.matmul(A, g / (sign * root), out=Ag)  # A gt, gt = (sign g) / root
        if n == 1:
            center = center - (1.0 + alpha) * Ag / 2.0
            A = A * (0.5 * (1.0 - alpha)) ** 2
        else:
            center = center - (1.0 + n * alpha) * Ag / (n + 1.0)
            # in place, each product in the order of the formula above
            np.multiply(Ag[:, None], Ag, out=outer)
            np.multiply(step * (1.0 + n * alpha) / (1.0 + alpha), outer, out=outer)
            np.subtract(A, outer, out=A)
            np.multiply(shrink * (1.0 - alpha * alpha), A, out=A)

    return EllipsoidResult(
        best_point=best_point,
        best_value=best_value,
        converged=converged,
        iterations=it,
        gap_bound=float(gap_bound),
        center=center,
        shape_det=float(np.linalg.det(A)),
    )


def _restart(best_point, center, radius, restarts):
    # PSD drift guard: re-center on the best point seen, double the radius
    restarts += 1
    anchor = center if best_point is None else best_point
    r = radius * (2.0**restarts)
    return anchor.copy(), np.diag(r**2), restarts
