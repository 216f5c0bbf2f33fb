"""``window_counts`` on a direction stream against ``window_counts`` of the full direction set.

A stream counts without forming its directions: it maps each window's
sector onto a triangle, takes the certified interior of the reduced
strips that meet it whole and lets ``_inside`` and ``_turns`` decide the
rest, or, when the strips outweigh the N directions, sweeps the sectors
one sorted sector at a time.
So ``window_counts(direction_stream(...))`` must return exactly the
counts that ``window_counts(direction_set(...))`` returns, and the stream
the same N, on every input:
random and skewed determinant-1 bases, zero, random and small-q rational
shifts, both domains, and windows that wrap past 0, that are far thinner
than the gap between two directions, or whose ends sit exactly on a
lattice direction or on a rational direction atan2(r1, -r2).
"""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import latdir as ld

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPS = settings(derandomize=True, deadline=None, max_examples=50)


def counted(lat, shape, T, interval, alphas):
    """The window counts of a direction stream, and its N, read after the count."""
    stream = ld.direction_stream(lat, shape, T)
    return ld.window_counts(stream, interval, alphas), stream.N

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
def test_counter_matches_window_counts(basis, shift, shape, T, data):
    lat = ld.AffineLatticeSpec(basis, shift)
    dirs = ld.direction_set(lat, shape, T)
    if dirs.N == 0:
        stream = ld.direction_stream(lat, shape, T)
        with pytest.raises(ld.InvalidInputError, match="empty"):
            ld.window_counts(stream, (-1.0, 1.0), 0.3)
        assert stream.N == 0
        return
    alphas = []
    for _ in range(6):
        interval, alpha = data.draw(windows(dirs))
        want = ld.window_counts(dirs, interval, alpha)
        assert counted(lat, shape, T, interval, alpha) == (want, dirs.N)
        alphas.append(alpha)
    # one array-valued call over the drawn positions, in their shape, against the same counts
    alphas = np.array(alphas).reshape(2, 3)
    counts, N = counted(lat, shape, T, interval, alphas)
    assert N == dirs.N and counts.shape == (2, 3)
    assert np.array_equal(counts, ld.window_counts(dirs, interval, alphas))


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
    ts = distinct[:: max(1, distinct.size // 120)]
    for t in ts.tolist():
        for interval, alpha in (((0.0, 1.0), t), ((-1.0, 0.0), t), ((0.0, 1e-9), t)):
            got = counted(lat, shape, T, interval, alpha)
            assert got == (ld.window_counts(dirs, interval, alpha), dirs.N)
    for interval in ((0.0, 1.0), (-1.0, 0.0), (0.0, 1e-9)):  # every position in one call
        counts, N = counted(lat, shape, T, interval, ts)
        assert N == dirs.N and np.array_equal(counts, ld.window_counts(dirs, interval, ts))


def test_counter_repairs_a_wrong_interior(monkeypatch):
    # interiors widened 3 integers past their certified ends, in the sector sweep and in the
    # counter alike, take points past the arc or the domain: the check of the interior ends must
    # find those strips and decide them point by point, so the swept set and the stream's counts
    # keep their values
    lat, shape, T = ld.AffineLatticeSpec(ld.Mat2(1.0, 0.0, 0.3, 1.0), (0.25, 1 / 3)), ld.Annulus(0.2), 80.0
    dirs = ld.direction_set(lat, shape, T)
    monkeypatch.setattr(ld.lattice, "SECTOR", 64)  # hundreds of sectors to frame
    streams = [ld.direction_stream(lat, shape, T) for _ in range(9)]
    for stream in streams:
        stream.N  # the m1-strips are solved before the interiors are widened
    calls, zones, arc_ranges = [0, 0], ld.lattice._zones, ld.DirectionStream._arc_ranges

    def widened(lo, hi, ilo, ihi, *rest):
        calls[0] += 1
        held = ihi >= ilo
        return zones(lo - 3, hi + 3, np.where(held, ilo - 3, ilo), np.where(held, ihi + 3, ihi), *rest)

    def counted_arcs(self, *args):
        calls[1] += 1
        return arc_ranges(self, *args)

    monkeypatch.setattr(ld.lattice, "_zones", widened)
    monkeypatch.setattr(ld.DirectionStream, "_arc_ranges", counted_arcs)
    swept = ld.DirectionSet(np.concatenate([vals.copy() for vals in streams[0].chunks()]), T, shape)
    assert np.array_equal(swept.alphas, dirs.alphas)
    windows = [(alpha, interval) for alpha in (0.05, 0.3, 0.61, 0.97) for interval in ((-5.0, 5.0), (0.0, 3000.0))]
    for stream, (alpha, interval) in zip(streams[1:], windows):
        got = ld.window_counts(stream, interval, alpha)
        assert got == ld.window_counts(dirs, interval, alpha)
        assert ld.window_counts(swept, interval, alpha) == got
    assert calls[0] > calls[1]  # some strips were decided again


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
                counted(lat, ld.Annulus(0.0), T, (-1.0, 1.0), 0.375)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # one strip of 4e17 points, whose ends hold about 2e8 boundary candidates each
    thin = ld.AffineLatticeSpec(ld.Mat2(1e12, 0.0, 0.0, 1e-12), (0.0, 0.5))
    tracemalloc.start()
    try:
        with pytest.raises(ld.CapacityError, match="boundary candidates"):
            counted(thin, ld.Annulus(0.0), 2e5, (-1.0, 1.0), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ld.InvalidInputError):
        counted(lat, ld.Annulus(0.0), 10.0, (1.0, 1.0), 0.375)


def test_counter_decides_an_axis_strip_whole():
    # the p1 = 0 strip holds 2e13 points whose directions are exactly up or down; the window
    # ends lie within roundoff of up, so the strip was decided point by point past the budget
    thin = ld.AffineLatticeSpec(ld.Mat2(1e8, 0.0, 0.0, 1e-8), (0.0, 0.5))
    tracemalloc.start()
    try:
        got = counted(thin, ld.Annulus(0.0), 1e5, (-1.0, 1.0), 0.25)
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
                got = counted(lat, ld.Annulus(0.0), 100.0, interval, alpha)
                assert got == (ld.window_counts(dirs, interval, alpha), dirs.N)


def test_counter_budget_counts_strips_times_window_ends():
    # 1e4 positions at T = 2e4, where the 1.26e9 directions expected pass the 2e8 values of the
    # budget, are counted on about as many reduced strips as windows, without a sweep and with
    # the counts of one position at a time; windows of 0.45 turn split into arcs whose reduced
    # strips outweigh the N directions, so they would be swept, and the sweep's check of the
    # directions expected refuses them before any strip is formed
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.5, 0.5))
    alphas = np.random.default_rng(5).uniform(0.0, 1.0, 10**4)
    tracemalloc.start()
    try:
        counts, N = counted(lat, ld.Annulus(0.0), 2e4, (-1.0, 1.0), alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**26
    assert N > 10**9 and counts.shape == alphas.shape
    for i in (0, 1, 4567, 9999):
        assert counted(lat, ld.Annulus(0.0), 2e4, (-1.0, 1.0), alphas[i])[0] == counts[i]
    stream = ld.direction_stream(lat, ld.Annulus(0.0), 2e4)
    stream.N
    tracemalloc.start()
    try:
        with pytest.raises(ld.CapacityError, match="points expected"):
            ld.window_counts(stream, (0.0, 0.45 * N), alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**26
    assert counted(lat, ld.Annulus(0.0), 2e4, (-1.0, 1.0), 0.1)[1] > 0


def test_crude_bound_array_equals_per_position_calls():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.5, 0.5))
    alphas = np.array([[0.1, 0.375, 0.9], [0.0, 0.25, 0.6180339887]])
    for interval, theta in (((-1.0, 1.0), 0.5), ((0.0, 0.001), 1.0)):
        got = ld.crude_bound_holds(lat, alphas, 120.0, interval, theta)
        assert got.shape == alphas.shape
        want = [[ld.crude_bound_holds(lat, a, 120.0, interval, theta) for a in row] for row in alphas.tolist()]
        assert got.tolist() == want


def test_non_finite_positions_are_invalid():
    # a NaN or infinite position gave a garbage count with only a RuntimeWarning from the cast
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.5, 0.5))
    dirs = ld.direction_set(lat, ld.Annulus(0.0), 120.0)
    for alphas in ([math.nan, 0.2, math.inf], math.nan, [0.1, -math.inf]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ld.InvalidInputError, match="positions must be finite"):
                ld.window_counts(dirs, (-1.0, 1.0), alphas)
            with pytest.raises(ld.InvalidInputError, match="positions must be finite"):
                counted(lat, ld.Annulus(0.0), 120.0, [(-1.0, 1.0), (0.0, 2.0)], alphas)
            with pytest.raises(ld.InvalidInputError, match="positions must be finite"):
                ld.crude_bound_holds(lat, np.atleast_1d(alphas), 120.0, (-1.0, 1.0), 0.5)


@st.composite
def positions(draw, dirs, own):
    """Window positions: the windows' own, uniform ones, grid points and directions themselves."""
    n = draw(st.sampled_from([1, 3, 40, 400]))
    kind = draw(st.sampled_from(["uniform", "grid", "directions"]))
    if kind == "uniform":
        extra = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(0.0, 1.0, n)
    elif kind == "grid":
        extra = np.arange(n) / n
    else:
        extra = dirs.alphas[np.linspace(0, dirs.N - 1, n).astype(int)]
    return np.concatenate([own, extra])


@PROPS
@given(bases(), shifts, shapes, st.floats(2.0, 120.0), st.integers(1, 3),
       st.sampled_from([16, 64, 512, None]), st.data())
def test_window_batches_match_window_counts(basis, shift, shape, T, m, sector, data):
    # m windows at many positions in one call: a few distinct ends are cut at, more than the
    # K = N // SECTOR sectors are swept; a small SECTOR gives K > 1 at this N, so both run
    lat = ld.AffineLatticeSpec(basis, shift)
    dirs = ld.direction_set(lat, shape, T)
    with pytest.MonkeyPatch.context() as mp:
        if sector is not None:
            mp.setattr(ld.lattice, "SECTOR", sector)
        if dirs.N == 0:
            stream = ld.direction_stream(lat, shape, T)
            with pytest.raises(ld.InvalidInputError, match="empty"):
                ld.window_counts(stream, [(-1.0, 1.0)] * m, [0.3, 0.7])
            assert stream.N == 0
            return
        drawn = [data.draw(windows(dirs)) for _ in range(m)]
        intervals = np.array([iv for iv, _ in drawn])
        alphas = data.draw(positions(dirs, [alpha for _, alpha in drawn]))
        counts, N = counted(lat, shape, T, intervals, alphas)
    assert N == dirs.N and counts.shape == (m, alphas.size)
    assert np.array_equal(counts, ld.window_counts(dirs, intervals, alphas))
    for iv, row in zip(intervals, counts):
        assert np.array_equal(row, ld.window_counts(dirs, tuple(iv), alphas))


@pytest.mark.parametrize("positions, m, swept", [(1, 1, False), (1, 2, False), (2, 1, False), (300, 1, True)])
def test_few_ends_are_cut_at_and_many_are_swept(monkeypatch, positions, m, swept):
    # N = 785,389 at T = 500: a few short windows are counted on a few reduced strips each, and
    # 300 windows of 0.45 turn on about 575,000, which at STRIP_COST directions each outweigh the
    # N directions, so the sectors are swept; both give the same counts
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.5, 0.5))
    dirs = ld.direction_set(lat, ld.Annulus(0.0), 500.0)
    assert dirs.N // ld.lattice.SECTOR == 5
    sweeps = []
    sectors = ld.lattice._sorted_sectors
    monkeypatch.setattr(ld.lattice, "_sorted_sectors", lambda *args: sweeps.append(1) or sectors(*args))
    alphas = np.linspace(0.0, 1.0, positions, endpoint=False) + 0.01
    intervals = [(0.0, 0.45 * dirs.N)] if swept else [(-1.0, 1.0), (0.0, 40.0)][:m]
    counts, N = counted(lat, ld.Annulus(0.0), 500.0, intervals, alphas)
    assert N == dirs.N and counts.shape == (m, positions)
    assert np.array_equal(counts, ld.window_counts(dirs, intervals, alphas))
    assert len(sweeps) == swept
