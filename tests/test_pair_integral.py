"""Property tests for the exact two-window pair integral.

``pair_correlation_integral`` sums window overlaps over the pairs of the
neighbour passes.  It is checked against ``brute_pair_integral`` (an
O(N^2) sum over pairs and circle images) on tiny direction sets and
against ``pair_overlap_sum`` on mid-size ones.  Rational shifts give
repeated directions, so many differences are exactly 0 or on a window
edge; the window pairs cover identical windows, shared endpoints,
disjoint and nested windows.  Both oracles count every circle image of a
pair, so they apply while each window is shorter than N, also when the
two together span N or more and a direction can sit in both through
different images; then the reach can exceed N/2 and the passes run past
d = N on tiny sets.  A window of length >= N counts all N directions, and
those cases are checked against closed forms.
"""

import numpy as np
import pytest

import latdir as ld

from oracles import brute_pair_integral, pair_overlap_sum

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPS = settings(derandomize=True, deadline=None, max_examples=40)

shifts = st.sampled_from([(0.5, 0.5), (0.0, 0.0), (1 / 3, 0.5), (0.25, 0.75)]) | st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0)
)
shapes = st.sampled_from([ld.Annulus(0.0), ld.Annulus(0.5), ld.Square()])


def _dirs(xi, shape, T):
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), xi)
    return ld.directions(ld.enumerate_points(lat, shape, T), T, shape)


@st.composite
def window_pairs(draw, reach=2.0):
    """Two windows within [-reach, 4 reach] in one of six relations."""
    ends = st.floats(-reach, reach)
    widths = st.floats(0.05, reach)
    a1, w1 = draw(ends), draw(widths)
    b1 = a1 + w1
    kind = draw(st.sampled_from(["identical", "same_a", "same_b", "disjoint", "nested", "free"]))
    if kind == "identical":
        return (a1, b1), (a1, b1)
    if kind == "same_a":
        return (a1, b1), (a1, a1 + draw(widths))
    if kind == "same_b":
        return (a1, b1), (b1 - draw(widths), b1)
    if kind == "disjoint":
        a2 = b1 + draw(st.floats(0.0, reach / 2))
        return (a1, b1), (a2, a2 + draw(widths))
    if kind == "nested":
        lo = a1 + draw(st.floats(0.0, 0.9)) * w1
        return (a1, b1), (lo, lo + draw(st.floats(0.05, 1.0)) * (b1 - lo))
    a2 = draw(ends)
    return (a1, b1), (a2, a2 + draw(widths))


@PROPS
@given(shifts, shapes, st.floats(2.0, 3.5), window_pairs(), st.booleans())
def test_pair_integral_matches_brute(xi, shape, T, pair, swap):
    dirs = _dirs(xi, shape, T)
    I1, I2 = pair[::-1] if swap else pair
    assume(max(I1[1], I2[1]) - min(I1[0], I2[0]) < dirs.N)
    got = ld.pair_correlation_integral(dirs, I1, I2)
    assert got == pytest.approx(brute_pair_integral(dirs, I1, I2), rel=1e-9, abs=1e-9)


@PROPS
@given(shifts, shapes, st.floats(20.0, 40.0), window_pairs(), st.booleans())
def test_pair_integral_matches_overlap_sum(xi, shape, T, pair, swap):
    dirs = _dirs(xi, shape, T)
    I1, I2 = pair[::-1] if swap else pair
    got = ld.pair_correlation_integral(dirs, I1, I2)
    assert got == pytest.approx(pair_overlap_sum(dirs, I1, I2), rel=1e-9, abs=1e-9)


@PROPS
@given(shifts, shapes, st.floats(2.0, 3.5), st.floats(-1.0, 1.0), st.floats(0.0, 3.0),
       st.floats(0.05, 2.0))
def test_pair_integral_wide_window(xi, shape, T, a, extra, w):
    # window 1 has length >= N, so its count is constantly N
    dirs = _dirs(xi, shape, T)
    N = dirs.N
    wide = (a, a + N + extra)
    inner = (a + 0.5, a + 0.5 + w)
    want = (N - 1) * w  # the inner window is nested in the wide one
    assert ld.pair_correlation_integral(dirs, wide, inner) == pytest.approx(want, rel=1e-9)
    assert ld.pair_correlation_integral(dirs, inner, wide) == pytest.approx(want, rel=1e-9)
    both = ld.pair_correlation_integral(dirs, wide, (a - 1.0, a + N + extra))
    assert both == pytest.approx(N * (N - 1), rel=1e-12)


def test_pair_integral_no_self_pair_through_another_image():
    # eight equally spaced directions: window 2 = (7.5, 8.5) is (-0.5, 0.5) one turn on,
    # so half the time a direction sits in both windows, and it is no pair with itself
    dirs = ld.DirectionSet(np.arange(8) / 8.0, 1.5, ld.Annulus(0.0))
    for I1, I2 in (((0.0, 1.0), (7.5, 8.5)), ((7.5, 8.5), (0.0, 1.0)), ((0.0, 1.0), (-7.5, -6.5))):
        assert ld.pair_correlation_integral(dirs, I1, I2) == 0.5
        assert brute_pair_integral(dirs, I1, I2) == 0.5


@PROPS
@given(shifts, shapes, st.floats(2.0, 3.5), window_pairs(), st.integers(-2, 2),
       st.floats(-1.0, 1.0), st.booleans())
def test_pair_integral_matches_brute_far_apart(xi, shape, T, pair, k, jitter, swap):
    # window 2 moved by about k N: together the windows span N or more
    dirs = _dirs(xi, shape, T)
    N = dirs.N
    (a1, b1), (a2, b2) = pair
    assume(max(b1 - a1, b2 - a2) < N)
    I1, I2 = (a1, b1), (a2 + k * N + jitter, b2 + k * N + jitter)
    if swap:
        I1, I2 = I2, I1
    got = ld.pair_correlation_integral(dirs, I1, I2)
    assert got == pytest.approx(brute_pair_integral(dirs, I1, I2, m_range=5), rel=1e-9, abs=1e-9)


def test_pair_integral_past_one_turn_regular():
    # eight equally spaced directions and windows shorter than N = 8: the scaled differences
    # are the integers s not divisible by 8, each from 8 ordered pairs, so the integral is the
    # sum of |(a1, b1) & (a2 + s, b2 + s)| over those s (hand-summed below); a reach of 11
    # runs the passes to d = 11, past d = N
    dirs = ld.DirectionSet(np.arange(8) / 8.0, 1.5, ld.Annulus(0.0))
    cases = (((0.0, 7.0), (4.0, 11.0), 43.0), ((4.0, 11.0), (0.0, 7.0), 43.0),
             ((0.0, 7.0), (-12.0, -5.0), 43.0), ((0.0, 7.5), (3.5, 11.0), 49.0),
             ((0.0, 7.0), (0.0, 7.0), 42.0))
    for I1, I2, want in cases:
        assert ld.pair_correlation_integral(dirs, I1, I2) == want
        assert brute_pair_integral(dirs, I1, I2, m_range=5) == want


@PROPS
@given(shifts, shapes, st.floats(2.0, 3.5), st.floats(0.55, 0.99), st.floats(0.55, 0.99),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.booleans())
def test_pair_integral_passes_past_one_turn(xi, shape, T, f1, f2, u1, u2, swap):
    # both windows shorter than N and together longer than N, so the reach stays above N/2
    # whatever whole turns window 2 is moved by, and the passes often cross d = N
    dirs = _dirs(xi, shape, T)
    N = dirs.N
    I1, I2 = (u1 * N, (u1 + f1) * N), (u2 * N, (u2 + f2) * N)
    if swap:
        I1, I2 = I2, I1
    got = ld.pair_correlation_integral(dirs, I1, I2)
    assert got == pytest.approx(brute_pair_integral(dirs, I1, I2, m_range=5), rel=1e-9, abs=1e-9)
