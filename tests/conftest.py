import numpy as np
import pytest

import coopmec.p1
from coopmec.model import Geometry, SystemParams, pathloss
from coopmec.p1 import lmax_partial


def desk_params(T=0.1, L=2e4, D=120.0, **overrides) -> SystemParams:
    """The default desk-scale setup used throughout the tests.

    1 MHz bandwidth, -70 dBm noise, 40 dBm caps, 1000 cycles/bit,
    kappa 1e-27 / 0.3e-27, 2/3/5 GHz CPUs, pathloss -60 dB at 10 m with
    exponent 3, user-AP distance 250 m and the helper D meters out.
    """
    geo = Geometry(d_user_helper=D)
    base = dict(
        L=L, T=T, B=1e6,
        h01=pathloss(D, geo),
        h0=pathloss(250.0, geo),
        h1=pathloss(250.0 - D, geo),
        sigma0_sq=1e-10, sigma1_sq=1e-10,
        P_u_max=10.0, P_h_max=10.0,
        c_u=1e3, c_h=1e3, c_a=1e3,
        kappa_u=1e-27, kappa_h=0.3e-27,
        f_u_max=2e9, f_h_max=3e9, f_a_max=5e9,
    )
    base.update(overrides)
    return SystemParams(**base)


def random_params(rng: np.random.Generator, frac: float | None = None) -> SystemParams:
    """Feasible instance with every constant log-uniform around defaults."""
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
    lmax = lmax_partial(SystemParams(**base))
    frac = frac if frac is not None else float(rng.uniform(0.05, 0.8))
    base["L"] = frac * lmax
    return SystemParams(**base)


def no_cold_attempt(monkeypatch):
    """Turn the cold face solves off, so every solve below capacity runs
    the ascent."""
    monkeypatch.setattr(coopmec.p1, "_cold_attempt", lambda *args: None)


@pytest.fixture
def p_default() -> SystemParams:
    return desk_params()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
