"""Property tests for ``window_counts`` against a brute count over circle images.

The brute count takes the same float window ends as the library,
lo = (alpha + a/N) mod 1 and hi = lo + (b - a)/N, and counts the pairs
(j, m) with alpha_j + m in [lo, hi) for the images m = -1..2, so it reads
no lifted sequence and has no wrap branch.  The direction sets cover
random angles, regular N-gons, dyadic angles with multiplicities and
angles next to 0 and 1; the positions include -1e-300 (whose window start
wraps to exactly 1.0) and the windows include ends at multiples of N.
"""

import numpy as np
import pytest

import latdir as ld

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPS = settings(derandomize=True, deadline=None, max_examples=200)


def brute_window_counts(A, interval, alphas):
    """Count (j, m) with lo <= A_j + m < hi, compared as lo - m <= A_j < hi - m.

    For the m that can matter (0 and 1) both subtractions are exact or
    land on the side of A_j that the exact value is on, so no comparison
    flips.
    """
    N = A.size
    a, b = interval
    out = []
    for alpha in alphas:
        lo = np.mod(alpha + a / N, 1.0)
        hi = lo + (b - a) / N
        out.append(sum(int(np.sum((lo - m <= A) & (A < hi - m))) for m in range(-1, 3)))
    return np.array(out)


@st.composite
def direction_arrays(draw):
    kind = draw(st.sampled_from(["random", "regular", "dyadic", "edges"]))
    if kind == "random":
        A = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40))
    elif kind == "regular":
        n = draw(st.integers(1, 24))
        A = list(np.arange(n) / n)
    elif kind == "dyadic":
        # eighths, each repeated up to three times
        A = [k / 8.0 for k in range(8) for _ in range(draw(st.integers(0, 3)))] or [0.5]
    else:
        A = [0.0, 1e-300, 0.5, 1.0 - 1e-16] + draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                                           max_size=8))
    return np.sort(np.array(A, dtype=float))


positions = st.sampled_from([0.0, -1e-300, 1e-300, 0.5, 1.0 - 1e-16, -0.25]) | st.floats(-3.0, 3.0)


@PROPS
@given(direction_arrays(), st.data())
def test_window_counts_match_brute(A, data):
    N = A.size
    dirs = ld.DirectionSet(A, 10.0, ld.Annulus(0.0))
    ends = st.sampled_from([k * N for k in range(-2, 3)]) | st.floats(-2.0 * N, 2.0 * N)
    a = data.draw(ends)
    width = data.draw(st.sampled_from([0.5, 1.0, N / 2, N - 0.5]) | st.floats(0.01, 0.999 * N))
    alphas = np.array(data.draw(st.lists(positions, min_size=1, max_size=6)))
    got = ld.window_counts(dirs, (a, a + width), alphas)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, brute_window_counts(A, (a, a + width), alphas))
    # a window of length N or more holds every direction
    wide = ld.window_counts(dirs, (a, a + N + data.draw(st.floats(0.0, 2.0 * N))), alphas)
    np.testing.assert_array_equal(wide, np.full(alphas.shape, N))
