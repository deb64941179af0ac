"""Inputs of the three workloads.

Every generator takes the imported `coopmec` package (and, where it
draws or orders instances, a seed), and hands the solver nothing but
`SystemParams` (or, for the sweep, a `Scenario`).
L is scaled with the package's own capacity LPs, so the instance
generation that `setup_s` times includes them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

ACCEPTANCE_SEED = 20250808
ACCEPTANCE_SIZE = 50

#: four dual-pipeline schemes, each run at these fractions of its capacity
EDGE_SCHEMES = ("joint-partial", "comp-partial", "comm-partial", "comm-binary")
EDGE_FRACTIONS = (1.0, 0.999, 1e-6)
EDGE_SEED = 7


def random_params(cm, rng: np.random.Generator, frac: float | None = None):
    """Feasible instance with every constant log-uniform within x3 of the
    defaults and L uniform in [0.05, 0.8] of the joint capacity.

    Draw for draw the same as the test suite's `random_params`, so seed
    20250808 gives acceptance criterion 1's batch.
    """
    def f(v, lo=1 / 3, hi=3.0):
        return v * float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    base = dict(
        L=1.0, T=f(0.05), B=f(1e6),
        h01=f(5.787e-10), h0=f(6.4e-11), h1=f(4.552e-10),
        sigma0_sq=f(1e-10), sigma1_sq=f(1e-10),
        P_u_max=f(10.0), P_h_max=f(10.0),
        c_u=f(1e3), c_h=f(1e3), c_a=f(1e3),
        kappa_u=f(1e-27), kappa_h=f(0.3e-27),
        f_u_max=f(2e9), f_h_max=f(3e9), f_a_max=f(5e9),
    )
    lmax = cm.lmax_partial(cm.SystemParams(**base))
    frac = frac if frac is not None else float(rng.uniform(0.05, 0.8))
    base["L"] = frac * lmax
    return cm.SystemParams(**base)


def acceptance_batch(cm, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [random_params(cm, rng) for _ in range(ACCEPTANCE_SIZE)]


def _shuffled(items: list, seed: int) -> list:
    return [items[i] for i in np.random.default_rng(seed).permutation(len(items))]


def acceptance_ops(cm, seed: int) -> list[tuple[int, object]]:
    """(index, params) of acceptance criterion 1's batch, in an order
    shuffled by the seed.

    The batch itself is always the one seed 20250808 draws: other seeds
    draw instances the solver does not certify (seed 6, instance 12 ends
    `nonconverged`), and a failure count that moved with the seed could
    not be compared between runs.
    """
    batch = acceptance_batch(cm, ACCEPTANCE_SEED)
    return _shuffled(list(enumerate(batch)), seed)


def fig4_scenario(cm):
    """Figure-4 block-length sweep: desk defaults (L = 0.02 Mbits, helper
    120 m out), T from 10 to 100 ms in 10 points, all seven schemes."""
    return cm.Scenario(sweep_param="T", sweep_from=10.0, sweep_to=100.0,
                       sweep_steps=10)


def desk(cm, T=0.05, D=120.0, **overrides):
    # pathloss -60 dB at 10 m, exponent 3; user-AP distance 250 m
    def gain(d):
        return 1e-6 * (d / 10.0) ** (-3.0)

    base = dict(
        L=1.0, T=T, B=1e6, h01=gain(D), h0=gain(250.0), h1=gain(250.0 - D),
        sigma0_sq=1e-10, sigma1_sq=1e-10, P_u_max=10.0, P_h_max=10.0,
        c_u=1e3, c_h=1e3, c_a=1e3, kappa_u=1e-27, kappa_h=0.3e-27,
        f_u_max=2e9, f_h_max=3e9, f_a_max=5e9,
    )
    base.update(overrides)
    return cm.SystemParams(**base)


def edge_templates(cm) -> dict:
    """Fixed constants of the capacity-edge instances (L is set per op)."""
    d = desk(cm)
    return {
        "random": random_params(cm, np.random.default_rng(EDGE_SEED)),
        "helper-near-user": desk(cm, D=10.0),
        "helper-near-ap": desk(cm, D=240.0),
        "direct-link-strong": desk(cm, h0=100.0 * d.h01),
    }


def scheme_capacity(cm, p, scheme: str) -> float:
    """The package's capacity for one of the dual-pipeline schemes."""
    if scheme == "joint-partial":
        return cm.lmax_partial(p)
    cap = cm.lmax_binary(p)
    return {
        "comp-partial": cap.l_u_max + cap.l_h_max,
        "comm-partial": cap.l_u_max + cap.l_a_max,
        "comm-binary": cap.l_a_max,
    }[scheme]


def capacity_edge(cm, seed: int) -> list[tuple[str, str, float, object]]:
    """(template, scheme, fraction, params) for every capacity-edge op.

    The instances do not depend on the seed: whether an edge solve
    certifies depends on the instance, and a failure count that moved with
    the seed could not be compared between runs. The seed only shuffles
    the order in which the operations are solved.
    """
    ops = []
    for name, t in edge_templates(cm).items():
        for scheme in EDGE_SCHEMES:
            cap = scheme_capacity(cm, t, scheme)
            for frac in EDGE_FRACTIONS:
                ops.append((name, scheme, frac, replace(t, L=frac * cap)))
    return _shuffled(ops, seed)
