import dataclasses

import pytest

from coopmec.model import (
    Allocation,
    Geometry,
    InfeasibleWindowError,
    SystemParams,
    check_feasible,
    db_to_linear,
    dbm_to_watts,
    local_compute_energy,
    pathloss,
    r0,
    r01,
    r1,
    rate,
    total_energy,
)
from conftest import desk_params, random_params


def test_dbm_to_watts():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watts(-70.0) == pytest.approx(1e-10, rel=1e-12)
    assert dbm_to_watts(40.0) == pytest.approx(10.0, rel=1e-12)


def test_db_to_linear():
    assert db_to_linear(-60.0) == pytest.approx(1e-6, rel=1e-12)
    assert db_to_linear(0.0) == 1.0


def test_pathloss_reference_distance():
    g = Geometry()
    assert pathloss(10.0, g) == pytest.approx(1e-6, rel=1e-12)
    assert pathloss(20.0, g) == pytest.approx(1.25e-7, rel=1e-12)
    # reference-distance identity for any exponent
    for zeta in (1.0, 2.5, 4.0):
        gz = Geometry(zeta=zeta)
        assert pathloss(gz.d0, gz) == pytest.approx(gz.beta0, rel=1e-14)


def test_pathloss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        pathloss(0.0, Geometry())
    with pytest.raises(ValueError):
        pathloss(-5.0, Geometry())


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(d_user_helper=300.0, d_user_ap=250.0)
    with pytest.raises(ValueError):
        Geometry(zeta=-1.0)


def test_rate_zero_power(p_default):
    for link in ("user_helper", "user_ap", "helper_ap"):
        assert rate(link, 0.0, p_default) == 0.0
    for hop in (r01, r0, r1):
        assert hop(0.0, p_default) == 0.0
        with pytest.raises(ValueError):
            hop(-1e-9, p_default)


def test_rate_unit_snr():
    # SNR exactly one gives rate B
    p = desk_params(h01=1e-11, P_u_max=10.0)  # 10 W * 1e-11 / 1e-10 = 1
    assert r01(10.0, p) == pytest.approx(1e6, rel=1e-12)


def test_rate_strong_helper_link():
    # 40 dBm through the D = 20 m helper channel
    p = desk_params(D=20.0)
    assert p.h01 == pytest.approx(1.25e-7, rel=1e-12)
    assert r01(10.0, p) == pytest.approx(1.3610e7, rel=1e-4)


def test_rate_concave_and_monotone(p_default, rng):
    hops = {"user_helper": r01, "user_ap": r0, "helper_ap": r1}
    for _ in range(50):
        pa, pb = rng.uniform(0.0, 10.0, size=2)
        th = rng.uniform()
        mix = th * pa + (1 - th) * pb
        for link, hop in hops.items():
            fa, fb, fm = (hop(x, p_default) for x in (pa, pb, mix))
            assert fm >= th * fa + (1 - th) * fb - 1e-6
            assert hop(max(pa, pb), p_default) >= hop(min(pa, pb), p_default)
            # each hop's rate is rate() on its link, bit for bit
            assert fm == rate(link, mix, p_default)


def test_perspective_concavity(p_default, rng):
    # tau * rate(E / tau) is jointly concave; random midpoint check
    def persp(tau, E):
        return tau * r0(E / tau, p_default) if tau > 0 else 0.0

    for _ in range(100):
        t1, t2 = rng.uniform(1e-4, 0.1, size=2)
        e1, e2 = rng.uniform(0.0, 1.0, size=2)
        mid = persp(0.5 * (t1 + t2), 0.5 * (e1 + e2))
        assert mid >= 0.5 * persp(t1, e1) + 0.5 * persp(t2, e2) - 1e-9


def test_gamma_gap_reduces_helper_rate():
    lo = desk_params(gamma_gap=1.0)
    hi = desk_params(gamma_gap=2.0)
    assert r01(1.0, hi) < r01(1.0, lo)
    # gap applies only to the user->helper hop
    assert r0(1.0, hi) == r0(1.0, lo)


def test_local_compute_energy_examples():
    assert local_compute_energy(0.0, 0.0, 1e-27, 1e3) == 0.0
    e = local_compute_energy(2e4, 0.05, 1e-27, 1e3)
    assert e == pytest.approx(3.2e-3, rel=1e-12)
    # cubic law: doubling the bits multiplies the energy by 8
    assert local_compute_energy(4e4, 0.05, 1e-27, 1e3) == pytest.approx(8 * e, rel=1e-12)


def test_local_compute_energy_infeasible_window():
    with pytest.raises(InfeasibleWindowError):
        local_compute_energy(10.0, 0.0, 1e-27, 1e3)
    with pytest.raises(ValueError):
        local_compute_energy(-1.0, 0.1, 1e-27, 1e3)


def test_local_compute_energy_equals_cycle_sum():
    # energy equals summing kappa f^2 over c*l cycles at f = c*l / window
    kappa, c = 2e-5, 3.0
    for l, window in ((2.0, 0.5), (5.0, 1.25), (7.0, 2.0)):
        cycles = int(c * l)
        f = c * l / window
        direct = sum(kappa * f**2 for _ in range(cycles))
        assert local_compute_energy(l, window, kappa, c) == pytest.approx(direct, rel=1e-12)


def test_total_energy_zero_allocation():
    p = desk_params(L=0.0)
    a = Allocation.zero(p)
    assert total_energy(a, p) == 0.0


def test_total_energy_local_only(p_default):
    a = Allocation.build(p_default, l_u=p_default.L)
    expect = local_compute_energy(p_default.L, p_default.T, p_default.kappa_u, p_default.c_u)
    assert total_energy(a, p_default) == pytest.approx(expect, rel=1e-14)


def test_total_energy_composes(p_default, rng):
    for _ in range(20):
        tau1, tau2, tau3 = rng.uniform(0.0, p_default.T / 4, size=3)
        P1, P2, P3 = rng.uniform(0.0, 10.0, size=3)
        l_u, l_h, l_a = rng.uniform(0.0, 1e4, size=3)
        a = Allocation.build(p_default, tau1=tau1, tau2=tau2, tau3=tau3,
                             P1=P1, P2=P2, P3=P3, l_u=l_u, l_h=l_h, l_a=l_a)
        expect = (
            tau1 * P1 + tau2 * P2 + tau3 * P3
            + local_compute_energy(l_u, p_default.T, p_default.kappa_u, p_default.c_u)
            + local_compute_energy(l_h, p_default.T - tau1, p_default.kappa_h, p_default.c_h)
        )
        assert total_energy(a, p_default) == pytest.approx(expect, rel=1e-12)


def test_energy_invariant_to_power_representation(p_default, rng):
    # representing a slot as (tau, P) or (tau, E = tau P) is the same energy
    for _ in range(20):
        tau = rng.uniform(1e-4, p_default.T / 2)
        P = rng.uniform(0.0, 10.0)
        a = Allocation.build(p_default, tau2=tau, P2=P)
        assert a.E2 == pytest.approx(tau * P, rel=1e-15)
        assert total_energy(a, p_default) == pytest.approx(tau * P, rel=1e-12)


def test_allocation_derives_the_fields_build_stored(rng):
    # tau4, E1-E3, f_u and f_h are properties now; each equals the
    # expression build stored before, float for float, with l_h = 0 and
    # tau1 = T among the draws
    for k in range(300):
        p = random_params(rng)
        T = p.T
        tau1 = (0.0, T, float(rng.uniform(0.0, T)))[k % 3]
        tau2, tau3 = (float(x) for x in rng.uniform(0.0, T, size=2))
        P1, P2, P3 = (float(x) for x in rng.uniform(0.0, 10.0, size=3))
        l_u, l_h, l_a = (float(x) for x in rng.uniform(0.0, p.L, size=3))
        l_h *= k % 2
        a = Allocation.build(p, tau1=tau1, tau2=tau2, tau3=tau3, P1=P1, P2=P2, P3=P3,
                             l_u=l_u, l_h=l_h, l_a=l_a)
        window_h = T - tau1
        assert a.params is p
        assert a.tau4 == p.c_a * l_a / p.f_a_max
        assert (a.E1, a.E2, a.E3) == (tau1 * P1, tau2 * P2, tau3 * P3)
        assert a.f_u == p.c_u * l_u / T
        assert a.f_h == (p.c_h * l_h / window_h if l_h > 0.0 and window_h > 0.0 else 0.0)


def test_check_feasible_zero_allocation():
    p = desk_params(L=1e-9)
    a = Allocation.build(p, l_u=p.L)
    assert check_feasible(a, p).feasible()


def test_check_feasible_flags_helper_rate(p_default):
    # l_h above what the offload slot can carry trips the helper-rate row
    a = Allocation.build(p_default, tau1=1e-3, P1=1.0, l_h=1e6, l_u=p_default.L - 1e6)
    rep = check_feasible(a, p_default)
    assert not rep.feasible()
    assert rep.residuals["helper_rate"] > 0


def test_check_feasible_flags_partition(p_default):
    a = Allocation.build(p_default, l_u=p_default.L / 2)
    rep = check_feasible(a, p_default)
    assert rep.residuals["bit_partition"] > 0.4
    assert not rep.feasible()


def test_check_feasible_power_bounds(p_default):
    a = Allocation.build(p_default, tau2=1e-3, P2=11.0, l_u=p_default.L)
    rep = check_feasible(a, p_default)
    assert rep.residuals["P2_bounds"] > 0


def test_system_params_validation():
    with pytest.raises(ValueError):
        desk_params(T=-1.0)
    with pytest.raises(ValueError):
        desk_params(gamma_gap=0.5)
    with pytest.raises(ValueError):
        desk_params(L=-5.0)
    with pytest.raises(ValueError):
        desk_params(h0=0.0)


def test_max_violation_is_max_of_positive_residuals(p_default):
    a = Allocation.build(p_default, l_u=p_default.L / 2)
    rep = check_feasible(a, p_default)
    assert rep.max_violation == pytest.approx(
        max(0.0, max(rep.residuals.values())), abs=0.0
    )


def test_cached_slopes_never_leak_across_instances():
    s = desk_params(gamma_gap=1.7)
    for _ in range(2):  # the first read computes, the second hits the cache
        assert s.g01 == s.h01 / (s.gamma_gap * s.sigma1_sq)
        assert s.g0 == s.h0 / s.sigma0_sq
        assert s.g1 == s.h1 / s.sigma0_sq
    p = desk_params()
    g01, g0, g1 = p.g01, p.g0, p.g1  # fill p's cache
    q = dataclasses.replace(p, h01=2.0 * p.h01, gamma_gap=1.5)
    assert q.g01 == q.h01 / (q.gamma_gap * q.sigma1_sq) != g01
    assert (q.g0, q.g1) == (g0, g1)
    assert p.g01 == g01
    r = dataclasses.replace(p, sigma0_sq=4.0 * p.sigma0_sq)
    assert r.g0 == r.h0 / r.sigma0_sq != g0
    assert r.g1 == r.h1 / r.sigma0_sq != g1
    # the cache is not part of the value
    assert dataclasses.replace(p, L=p.L) == p
    assert desk_params().g01 == g01
