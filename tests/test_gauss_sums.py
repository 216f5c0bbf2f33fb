"""Property test of the Siegel Gaussian sums (latdir.limit._gauss_sums).

Each m1-strip's sum over m2 is taken in closed form by Poisson summation;
the oracle sums the same strips term by term on the gathered matrix.  v
runs log-uniformly over [V_FLOOR, 1e6], where the closed form holds, and
the shifts include 0, the largest float below 1, small rationals and
random values.
"""

from fractions import Fraction

import numpy as np
import pytest

from latdir.limit import V_FLOOR, _gauss_sums

from oracles import strip_gauss_sums

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SHIFTS = st.one_of(
    st.just(0.0),
    st.just(1.0 - 2.0**-53),
    st.builds(lambda p, q: float(Fraction(p % q, q)), st.integers(0, 60), st.integers(1, 60)),
    st.floats(0.0, 1.0, exclude_max=True),
)
SAMPLES = st.tuples(
    st.floats(-0.5, 0.5),
    st.floats(0.0, 1.0).map(lambda t: V_FLOOR * (1e6 / V_FLOOR) ** t),
    st.floats(0.0, 6.3),
    SHIFTS,
    SHIFTS,
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(SAMPLES, min_size=1, max_size=6))
# both strips p1 = +-1/2 lie just inside the m1 cut: a disc |x| <= RCUT would keep a short chord
# of each, 3.98e-15 in all against 6.42e-15 for the whole strips
@example([(0.0, 145.7449792956087, 0.0, 0.5, 0.0)])
def test_gauss_sums_match_strip_sums(samples):
    u, v, phi, xi1, xi2 = (np.array(col) for col in zip(*samples))
    shift = np.column_stack([xi1, xi2])
    s, s2 = _gauss_sums(u, v, shift, True)
    ref, ref2 = strip_gauss_sums(u, v, phi, shift)
    assert s == pytest.approx(ref, rel=1e-12, abs=1e-15)
    assert s2 == pytest.approx(ref2, rel=1e-12, abs=1e-15)
    plain, none = _gauss_sums(u, v, shift, False)
    assert none is None and np.array_equal(plain, s)
