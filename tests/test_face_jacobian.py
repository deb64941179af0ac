"""The face solve's closed-form Jacobian against finite differences."""

import numpy as np
import pytest

from coopmec.bench import COMM_PARTIAL, COMP_PARTIAL
from coopmec.dual import DUAL_NAMES, FULL, DualPoint
from coopmec.model import LN2, Allocation, l_u_max
from coopmec.p1 import _cold_start, _dual_scales, _face_system, _priced_rows
from conftest import desk_params

# per restriction: the open slots, whether l_a > 0, and the unknowns z of
# its generic face (every open-route price counts; without a relay slot
# the deadline is slack, so mu1 is not one)
FACES = {
    "full": (FULL, (0, 1, 2), True, ("lam1", "lam2", "lam3", "mu1", "tau1", "tau2", "tau3", "l_a")),
    "comp-partial": (COMP_PARTIAL, (0,), False, ("lam1", "mu2", "tau1")),
    "comm-partial": (COMM_PARTIAL, (1, 2), True, ("lam2", "lam3", "mu1", "tau2", "tau3", "l_a")),
}

#: a closed form counts as interior when it is this far inside its box
MARGIN = 0.05


def _checkpoint_face(p, rest, slots, la_free):
    """The face system a checkpoint builds for an allocation with exactly
    these slots open, at prices large enough that every open-route price
    joins the face."""
    tau = [0.2 * p.T if i in slots else 0.0 for i in range(3)]
    a = Allocation.build(
        p, tau1=tau[0], tau2=tau[1], tau3=tau[2], P1=1.0 * (tau[0] > 0.0),
        P2=1.0 * (tau[1] > 0.0), P3=1.0 * (tau[2] > 0.0), l_u=0.3 * p.L,
        l_h=0.2 * p.L * (tau[0] > 0.0), l_a=0.2 * p.L * la_free)
    d = DualPoint(1e3, 1e3, 1e3, 1e3, 1e3)
    return _face_system(d, a, _priced_rows(d, a, p), p)


def _cold_face(p, rest, slots, la_free):
    """The face system of the cold attempt: the generic face it names."""
    return _face_system(*_cold_start(p, rest, _dual_scales(p, rest)), p)


def _random_z(rng, p, names, la_free):
    """A point of the face's unknowns whose closed forms sit inside their
    boxes: prices chosen from target powers and rates, slots and l_a
    uniform inside their ranges."""
    c = p.B / LN2
    lam1 = (rng.uniform(0.1, 0.9) * p.P_u_max + 1.0 / p.g01) / c
    lam2 = (rng.uniform(0.1, 0.9) * p.P_h_max + 1.0 / p.g1) / c
    lam3 = rng.uniform(0.0, 1.0) * lam2
    k3 = 3.0 * p.kappa_h * p.c_h**3
    M1 = rng.uniform(0.1, 0.9) * p.f_h_max / p.c_h
    mu2 = (lam1 if "lam1" in names else 0.0) + k3 * M1**2
    if la_free:
        mu1 = (mu2 - (lam2 + lam3 if "lam2" in names else 0.0)) * p.f_a_max / p.c_a
    else:
        mu1 = rng.uniform(0.0, 1.0) * c * 1e-6
    values = dict(lam1=lam1, lam2=lam2, lam3=lam3, mu1=mu1, mu2=mu2,
                  tau1=rng.uniform(0.1, 0.3) * p.T, tau2=rng.uniform(0.1, 0.3) * p.T,
                  tau3=rng.uniform(0.1, 0.3) * p.T, l_a=rng.uniform(0.1, 0.9) * p.L)
    return np.array([values[n] for n in names])


def _interior(st, p) -> bool:
    _, tau, _, _, l_u, s1, s2, s3 = st
    boxes = [(l_u, l_u_max(p))]
    if tau[0] > 0.0:
        boxes += [(s1[0], p.P_u_max), (s1[1], p.f_h_max / p.c_h)]
    if tau[1] > 0.0:
        boxes.append((s2[0], p.P_u_max))
    if tau[2] > 0.0:
        boxes.append((s3[0], p.P_h_max))
    return all(MARGIN * hi < x < (1.0 - MARGIN) * hi for x, hi in boxes)


def _check_columns(state, jacobian, z, p, names) -> None:
    # each column of the closed form against central differences (steps
    # of 1e-5 relative), within 1e-6 of the column's size
    F, st = state(z)
    J = jacobian(st)
    for j in range(z.size):
        h = 1e-5 * abs(z[j])
        e = np.zeros(z.size)
        e[j] = h
        (F_plus, st_plus), (F_minus, st_minus) = state(z + e), state(z - e)
        assert _interior(st_plus, p) and _interior(st_minus, p)
        fd = (F_plus - F_minus) / (2.0 * h)
        scale = max(np.abs(J[:, j]).max(), np.abs(fd).max())
        assert np.abs(J[:, j] - fd).max() <= 1e-6 * scale, (names[j], J[:, j], fd)


def _check_face(face, build) -> None:
    # central differences at interior points of the face, away from every
    # clip kink
    rest, slots, la_free, names = FACES[face]
    rng = np.random.default_rng(32)
    checked = 0
    for T in (0.03, 0.05, 0.1):
        p = desk_params(T=T, L=2e4 * T / 0.05)
        z0, _, _, state, jacobian = build(p, rest, slots, la_free)
        assert z0.size == len(names)
        assert set(names) & set(DUAL_NAMES) <= set(rest.active_duals)
        for _ in range(40):
            z = _random_z(rng, p, names, la_free)
            if not _interior(state(z)[1], p):
                continue
            _check_columns(state, jacobian, z, p, names)
            checked += 1
    assert checked >= 30


@pytest.mark.parametrize("face", FACES)
def test_face_jacobian_matches_finite_differences(face):
    # the generic face as a checkpoint names it, from the slack rule at a
    # recovery: each column of the closed form agrees within 1e-6 of the
    # column's size (6e-8 measured)
    _check_face(face, _checkpoint_face)


@pytest.mark.parametrize("face", FACES)
def test_cold_face_jacobian_matches_finite_differences(face):
    # the same face as the cold attempt names it (every open-route
    # price), from its own start
    _check_face(face, _cold_face)


@pytest.mark.parametrize("face", FACES)
def test_cold_start_names_the_generic_face(face):
    # the cold start opens every slot of the restriction, with l_a > 0
    # where the relay is open, and names every open-route price
    rest, slots, la_free, names = FACES[face]
    p = desk_params(T=0.05)
    d0, a, prices = _cold_start(p, rest, _dual_scales(p, rest))
    assert [i for i, t in enumerate((a.tau1, a.tau2, a.tau3)) if t > 0.0] == list(slots)
    assert (a.l_a > 0.0) == la_free
    assert [DUAL_NAMES[k] for k in prices] == [n for n in names if n in DUAL_NAMES[:4]]
