"""The circle wrap ``lattice._frac`` against ``np.mod(x, 1.0)``, bit for bit.

Directions, window positions and pair-integral breakpoints are all wrapped
by ``_frac``; the outputs stay byte-identical only if it equals ``np.mod``
on every float64, including signed zeros, subnormals, values that wrap
to 1.0, integers beyond 2^53, inf and nan.
"""

import math

import numpy as np
import pytest

from latdir.lattice import _frac

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
    -1e-300, 1e-300, 1.0, -1.0, 3.0, -3.0, 0.5, -0.5,
    2.0**53 - 1, 2.0**53 + 2, -(2.0**53) + 1, -(2.0**53) - 2, 2.0**53, -(2.0**53),
    1.0 - 2.0**-53, -(1.0 - 2.0**-53), 1.0 + 2.0**-52, -(1.0 + 2.0**-52),
    1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
]


def _same_bits(x):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        want = np.mod(x, 1.0)
        got = _frac(x)
        out = np.empty_like(x)
        in_place = x.copy()
        _frac(x, out=out)
        _frac(in_place, out=in_place)
    assert got.tobytes() == want.tobytes()
    assert out.tobytes() == want.tobytes()
    assert in_place.tobytes() == want.tobytes()


def test_frac_edge_values():
    _same_bits(EDGE_FLOATS)
    with np.errstate(invalid="ignore"):
        got = _frac(np.array([-0.0, -1e-300, -5e-324, 7.0, -(2.0**53) - 2, math.inf, -math.inf]))
    assert got[0] == 0.0 and math.copysign(1.0, got[0]) == 1.0  # -0.0 maps to +0.0
    assert got[1] == got[2] == 1.0  # tiny negatives round up to 1.0, as in np.mod
    assert got[3] == got[4] == 0.0
    assert np.isnan(got[5:]).all()


def test_frac_scalar():
    assert _frac(np.float64(-0.25)) == 0.75
    assert _frac(2.5) == np.mod(2.5, 1.0)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=400),
       st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS),
                min_size=1, max_size=400))
def test_frac_matches_np_mod(words, floats):
    # random bit patterns reach every exponent, subnormals and nan payloads
    _same_bits(np.array(words, dtype=np.uint64).view(np.float64))
    _same_bits(floats)
