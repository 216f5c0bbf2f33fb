"""``count_in_window`` against ``counting_stat`` of the full direction set.

The counter cuts the kept strip ranges at the two rays of a window's ends
and sums piece widths, letting ``_turns`` decide the points within
roundoff of a ray.  So it must return exactly the count that
``counting_stat(direction_set(...))`` returns, and N, on every input:
random and skewed determinant-1 bases, zero, random and small-q rational
shifts, both domains, and windows that wrap past 0, that are far thinner
than the gap between two directions, or whose ends sit exactly on a
lattice direction or on a rational direction atan2(r1, -r2).
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import latdir as ld

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPS = settings(derandomize=True, deadline=None, max_examples=50)

rational = st.fractions(min_value=-1, max_value=1, max_denominator=6).map(float)
shifts = (st.just((0.0, 0.0)) | st.tuples(rational, rational)
          | st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
shapes = st.sampled_from([ld.Annulus(0.0), ld.Square()]) | st.floats(0.05, 0.95).map(ld.Annulus)


@st.composite
def bases(draw):
    """Determinant-1 bases: n(u) a(v) k(phi) from nearly square to skewed, or an integer shear."""
    kind = draw(st.sampled_from(["iwasawa", "skewed", "shear", "identity"]))
    if kind == "identity":
        return ld.Mat2.identity()
    if kind == "shear":
        s = float(draw(st.integers(-1000, 1000)))
        return ld.Mat2(1.0, 0.0, s, 1.0) if draw(st.booleans()) else ld.Mat2(1.0, s, 0.0, 1.0)
    v = draw(st.floats(0.2, 5.0) if kind == "iwasawa" else st.floats(1e-4, 1e4))
    basis = ld.Mat2.from_array(ld.iwasawa_matrix(draw(st.floats(-3.0, 3.0)), v,
                                                 draw(st.floats(0.0, 2 * math.pi)))[0])
    return basis if abs(basis.det - 1.0) <= ld.lattice.DET_TOL else ld.Mat2.identity()


@st.composite
def windows(draw, dirs):
    """(interval, alpha): generic, wrapping, thin or wide windows, some ends on a direction."""
    N = dirs.N
    a = draw(st.floats(-20.0, 20.0))
    width = draw(st.sampled_from([1e-12, 1e-6, 0.5, 3.0, 40.0, 2.0 * N]) | st.floats(1e-9, 50.0))
    kind = draw(st.sampled_from(["uniform", "wrap", "on-point", "on-rational"]))
    if kind == "uniform":
        return (a, a + width), draw(st.floats(0.0, 1.0, exclude_max=True))
    if kind == "wrap":  # the window runs past 1 back to 0
        return (a, a + width), float(np.nextafter(1.0, 0.0)) - draw(st.floats(0.0, 1e-3)) - a / N
    if kind == "on-point":  # one end exactly on a lattice direction
        t = float(dirs.alphas[draw(st.integers(0, N - 1))])
        at_hi = draw(st.booleans())
        return (0.0, width), (t - width / N) % 1.0 if at_hi else t
    # one end on atan2(r1, -r2), the direction of the points with r . (m + xi) = 0
    r1, r2 = draw(st.sampled_from([(1, 1), (1, -1), (0, 1), (1, 0), (1, 2), (2, -1), (3, 1)]))
    t = math.atan2(r1, -r2) / (2.0 * math.pi) % 1.0
    return (0.0, width) if draw(st.booleans()) else (-width, 0.0), t


@PROPS
@given(bases(), shifts, shapes, st.floats(1.0, 300.0), st.data())
def test_counter_matches_counting_stat(basis, shift, shape, T, data):
    lat = ld.AffineLatticeSpec(basis, shift)
    dirs = ld.direction_set(lat, shape, T)
    if dirs.N == 0:
        assert ld.count_in_window(lat, shape, T, (-1.0, 1.0), 0.3) == (0, 0)
        return
    for _ in range(6):
        interval, alpha = data.draw(windows(dirs))
        want = ld.counting_stat(dirs, interval, alpha)
        assert ld.count_in_window(lat, shape, T, interval, alpha) == (want, dirs.N)


@pytest.mark.parametrize("shift, shape, T", [
    ((0.5, 0.5), ld.Annulus(0.0), 250.0),
    ((0.0, 0.0), ld.Square(), 60.0),
    ((0.0, 1e-12), ld.Annulus(0.0), 40.0),
    ((1 / 3, 2 / 3), ld.Annulus(0.5), 90.0),
])
def test_counter_on_every_direction(shift, shape, T):
    # a window end on each distinct direction of an identity lattice, from both sides, and a
    # window thinner than one ulp there: points on the rays through the origin decide them
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), shift)
    dirs = ld.direction_set(lat, shape, T)
    distinct = np.unique(dirs.alphas)
    for t in distinct[:: max(1, distinct.size // 120)].tolist():
        for interval, alpha in (((0.0, 1.0), t), ((-1.0, 0.0), t), ((0.0, 1e-9), t)):
            got = ld.count_in_window(lat, shape, T, interval, alpha)
            assert got == (ld.counting_stat(dirs, interval, alpha), dirs.N)


def test_counter_repairs_a_misplaced_cut(monkeypatch):
    # crossings moved far past their bands put whole runs of points in the wrong piece: the
    # check of the piece ends must find those ranges and decide them point by point
    lat = ld.AffineLatticeSpec(ld.Mat2(1.0, 0.0, 0.3, 1.0), (0.25, 1 / 3))
    dirs = ld.direction_set(lat, ld.Annulus(0.2), 80.0)
    slots, calls = ld.lattice._slots, []

    def moved(s, n, a, tol, w, xi2):
        calls.append(np.isinf(tol).sum())
        return slots(s, n, a, tol, w + 0.01 * (1.0 + np.abs(w)), xi2)

    monkeypatch.setattr(ld.lattice, "_slots", moved)
    for alpha in (0.05, 0.3, 0.61, 0.97):
        for interval in ((-5.0, 5.0), (0.0, 3000.0)):
            got = ld.count_in_window(lat, ld.Annulus(0.2), 80.0, interval, alpha)
            assert got == (ld.counting_stat(dirs, interval, alpha), dirs.N)
    assert max(calls) > 0  # some ranges were cut again


def test_probe_counts_unchanged():
    # singular_probe.csv of the benchmark: the counts of the full direction sets
    counts = ld.rational_divergence_probe((Fraction(1, 2), Fraction(1, 2)), (1, 1), 0.5,
                                          [250.0, 500.0, 1000.0])
    assert counts == [177, 354, 707]


def test_probe_at_large_scale_stays_small():
    # N is about 3.1e10 at T = 1e5, far past the point budget: only strips are allocated
    tracemalloc.start()
    try:
        counts = ld.rational_divergence_probe((Fraction(1, 2), Fraction(1, 2)), (1, 1), 0.5,
                                              [25_000.0, 50_000.0, 100_000.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20
    assert all(1.5 <= b / a <= 2.5 for a, b in zip(counts, counts[1:]))


def test_counter_budget():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.5, 0.5))
    tracemalloc.start()
    try:  # 4e6 strips of about 96 values are more than the 2e8 values of the budget
        for T in (2e6, 1e12):
            with pytest.raises(ld.CapacityError, match="strips"):
                ld.count_in_window(lat, ld.Annulus(0.0), T, (-1.0, 1.0), 0.375)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # one strip of 4e17 points, whose ends hold about 2e8 boundary candidates each
    thin = ld.AffineLatticeSpec(ld.Mat2(1e12, 0.0, 0.0, 1e-12), (0.0, 0.5))
    tracemalloc.start()
    try:
        with pytest.raises(ld.CapacityError, match="boundary candidates"):
            ld.count_in_window(thin, ld.Annulus(0.0), 2e5, (-1.0, 1.0), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ld.InvalidInputError):
        ld.count_in_window(lat, ld.Annulus(0.0), 10.0, (1.0, 1.0), 0.375)


def test_counter_decides_an_axis_strip_whole():
    # the p1 = 0 strip holds 2e13 points whose directions are exactly up or down; the window
    # ends lie within roundoff of up, so the strip was decided point by point past the budget
    thin = ld.AffineLatticeSpec(ld.Mat2(1e8, 0.0, 0.0, 1e-8), (0.0, 0.5))
    tracemalloc.start()
    try:
        got = ld.count_in_window(thin, ld.Annulus(0.0), 1e5, (-1.0, 1.0), 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (10**13, 2 * 10**13)
    assert peak < 2**25  # the 2e4 boundary candidates at the chord's ends, not the strip
    # the same on a small scale, against the direction set, for r2 on each axis
    for basis in (ld.Mat2(8.0, 0.0, 0.0, 0.125), ld.Mat2(0.0, 8.0, -0.125, 0.0)):
        lat = ld.AffineLatticeSpec(basis, (0.0, 0.5))
        dirs = ld.direction_set(lat, ld.Annulus(0.0), 100.0)
        for alpha in (0.0, 0.25, 0.5, 0.75):
            for interval in ((-1.0, 1.0), (0.0, 1.0), (-1.0, 0.0)):
                got = ld.count_in_window(lat, ld.Annulus(0.0), 100.0, interval, alpha)
                assert got == (ld.counting_stat(dirs, interval, alpha), dirs.N)


def test_crude_bound_without_a_direction_set():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.5, 0.5))
    dirs = ld.direction_set(lat, ld.Annulus(0.0), 120.0)
    for a in (0.1, 0.375, 0.9):
        for interval, theta in (((-1.0, 1.0), 0.5), ((0.0, 0.001), 1.0)):
            assert ld.crude_bound_holds(lat, a, 120.0, interval, theta) == \
                ld.crude_bound_holds(lat, a, 120.0, interval, theta, dirs=dirs)
