"""``escape._moebius`` against CPython 3.10/3.11 complex arithmetic, bit for bit.

The cusp sums map every quadrature node through M with numpy arrays, so
the map must repeat what ``(M.a * tau + M.b) / (M.c * tau + M.d)`` gives
on Python complex numbers: the same bits in both parts, signed zeros
included, nan where Python gives nan, and a CapacityError where Python
divides by zero.  The reference is ``oracles.moebius_py311``, the 3.10/3.11
formulas in plain floats, so the check holds on any interpreter; a second
test compares that reference with the running interpreter's own complex
arithmetic where it follows the same rules.  The draws mix ordinary values
with zeros of both signs, subnormals and values near the overflow threshold.
"""

import math
import sys

import numpy as np
import pytest

import latdir as ld
from latdir import escape

from oracles import moebius_py311

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPS = settings(derandomize=True, deadline=None, max_examples=300)

special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5, 1e-200, -1e200, 1.7e308, -1.7e308])
entries = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-4.0, 4.0) | special
heights = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.sampled_from([5e-324, 1e-200, 1.0, 1e300])


def _same(x: float, y: float) -> bool:
    return (math.isnan(x) and math.isnan(y)) or np.float64(x).tobytes() == np.float64(y).tobytes()


nodes_of = st.lists(st.tuples(entries, heights), min_size=1, max_size=6)
matrices = st.tuples(entries, entries, entries, entries).map(lambda m: ld.Mat2(*m))


@PROPS
@given(matrices, nodes_of)
def test_moebius_is_python311_complex_arithmetic(M, nodes):
    want = [moebius_py311(M, x, y) for x, y in nodes]
    u = np.array([x for x, _ in nodes])
    v = np.array([y for _, y in nodes])
    if None in want:
        with pytest.raises(ld.CapacityError):
            escape._moebius(M, u, v)
        return
    re, im = escape._moebius(M, u, v)
    for (wr, wi), x, y in zip(want, re.tolist(), im.tolist()):
        assert _same(wr, x) and _same(wi, y)


@pytest.mark.skipif(sys.version_info >= (3, 14),
                    reason="CPython 3.14 multiplies a float and a complex without the 0 * y terms")
@PROPS
@given(matrices, nodes_of)
def test_reference_is_the_interpreters_complex_arithmetic(M, nodes):
    for x, y in nodes:
        want = moebius_py311(M, x, y)
        try:
            got = (M.a * complex(x, y) + M.b) / (M.c * complex(x, y) + M.d)
        except ZeroDivisionError:
            assert want is None
            continue
        assert _same(want[0], got.real) and _same(want[1], got.imag)
