"""Property test of the certificate on random instances near capacity.

Each draw is a `random_params` instance with L at 0.99 to 1 of a dual
pipeline scheme's capacity, where Slater's condition holds barely or not
at all and the ellipsoid restarts. Such a solve may end `nonconverged`,
but a report of `optimal` must hold its certificate: a feasible
allocation, a scaled KKT residual within 1e-6 and a relative duality gap
within 1e-5, or at L = capacity the capacity vertex with no ascent.
"""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coopmec.bench import run_benchmark  # noqa: E402
from coopmec.p1 import STATUS_NONCONVERGED, STATUS_OPTIMAL  # noqa: E402
from conftest import random_params  # noqa: E402
from test_p1 import _assert_certified, _scheme_capacity  # noqa: E402


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       frac=st.sampled_from((0.99, 0.999, 0.9999, 1.0)),
       scheme=st.sampled_from(("joint-partial", "comp-partial", "comm-partial",
                               "comm-binary")))
def test_optimal_near_capacity_holds_the_certificate(seed, frac, scheme):
    p = random_params(np.random.default_rng(seed))
    p = replace(p, L=frac * _scheme_capacity(p, scheme))
    rep = run_benchmark(scheme, p)
    assert rep.status in (STATUS_OPTIMAL, STATUS_NONCONVERGED)
    if rep.ok:
        _assert_certified(rep, p)
