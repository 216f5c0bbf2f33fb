"""The window counter of a direction stream against the direction set.

``DirectionStream.window_counter`` splits each window into arcs of at
most 1/8 turn, maps each arc's thin sector (a needle) onto a triangle,
Gauss-reduces the frame's basis and decides the candidates on the
reduced strips that meet the triangle by the sweep's own predicates.  So
``window_counts`` on a stream must give the integers the direction set
gives: on the bases and shapes that ``test_window_counter`` draws, at
rational shifts with window ends on lattice rays, on windows that wrap
past 1, span 1/8 to 0.99 turn or start at a negative a, and at the
40,002 windows of the benchmark's ``moments`` job.  ``STRIP_COST`` is set
to 0 where a test needs the counter itself: long windows would otherwise
be swept.
"""

import math
import tracemalloc

import numpy as np
import pytest

import latdir as ld
from latdir import lattice, stats
from latdir.diophantine import CBRT2, CBRT4

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_window_counter import bases, shapes  # noqa: E402

PROPS = settings(derandomize=True, deadline=None, max_examples=40)


def reduced(lat, shape, T, interval, alphas):
    """``window_counts`` on a fresh stream, counted on reduced strips however many there are."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "STRIP_COST", 0)
        return ld.window_counts(ld.direction_stream(lat, shape, T), interval, alphas)


@PROPS
@given(bases(), st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), shapes, st.floats(2.0, 150.0), st.data())
def test_counter_matches_the_direction_set(basis, shift, shape, T, data):
    lat = ld.AffineLatticeSpec(basis, shift)
    dirs = ld.direction_set(lat, shape, T)
    if dirs.N == 0:
        return
    a = data.draw(st.floats(-30.0, 30.0))
    width = data.draw(st.sampled_from([1e-9, 0.7, 2.0, 25.0]) | st.floats(0.125, 0.99).map(lambda f: f * dirs.N))
    alphas = np.random.default_rng(data.draw(st.integers(0, 2**16))).uniform(0.0, 1.0, 48)
    want = ld.window_counts(dirs, (a, a + width), alphas)
    assert np.array_equal(reduced(lat, shape, T, (a, a + width), alphas), want)


@PROPS
@given(st.fractions(0, 1, max_denominator=12), st.fractions(0, 1, max_denominator=12),
       st.sampled_from([ld.Mat2.identity(), ld.Mat2(1.0, 0.0, 3.0, 1.0), ld.Mat2(2.0, 1.0, 1.0, 1.0)]),
       st.sampled_from([ld.Annulus(0.0), ld.Square(), ld.Annulus(0.5)]), st.floats(5.0, 80.0), st.data())
def test_rational_shifts_with_ends_on_lattice_rays(x1, x2, basis, shape, T, data):
    # many points share each direction of a rational shift; a window end sits on one of them
    lat = ld.AffineLatticeSpec(basis, (float(x1), float(x2)))
    dirs = ld.direction_set(lat, shape, T)
    if dirs.N == 0:
        return
    rays = dirs.alphas[np.random.default_rng(data.draw(st.integers(0, 2**16))).integers(0, dirs.N, 24)]
    for interval in ((0.0, 1.0), (-1.0, 0.0), (0.0, 1e-9), (-3.0, 0.0), (0.0, 0.3 * dirs.N)):
        want = ld.window_counts(dirs, interval, rays)
        assert np.array_equal(reduced(lat, shape, T, interval, rays), want)


@pytest.mark.parametrize("shape", [ld.Annulus(0.0), ld.Square(), ld.Annulus(0.5)])
def test_wrapping_long_and_negative_windows(shape):
    # windows that wrap past 1, arcs split into up to eight pieces, and windows left of alpha
    lat = ld.AffineLatticeSpec(ld.Mat2(1.0, 0.0, 0.4, 1.0), (CBRT4, CBRT2))
    dirs = ld.direction_set(lat, shape, 70.0)
    N = dirs.N
    alphas = np.array([0.0, 0.125, 0.3, 0.5, 0.875, 1.0 - 1e-12, float(np.nextafter(1.0, 0.0)), 0.999])
    for frac in (0.125, 0.2, 0.37, 0.5, 0.63, 0.875, 0.99):
        for a in (0.0, -0.5 * frac * N, -frac * N, 3.5):
            interval = (a, a + frac * N)
            want = ld.window_counts(dirs, interval, alphas)
            assert np.array_equal(reduced(lat, shape, 70.0, interval, alphas), want)


def _moments_windows(stream):
    """The ends lo, hi of the 40,002 windows of ``latdir moments --T 2000 --I 0:1 --I 0.5:2``."""
    grid = ld.MeasureSpec.uniform().grid()
    a, b = np.array([(0.0, 1.0), (0.5, 2.0)]).T
    lo = stats._frac(grid + (a / stream.N)[:, None])
    return lo, lo + ((b - a) / stream.N)[:, None]


def test_moments_job_counts_equal_the_sector_sweep():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    stream = ld.direction_stream(lat, ld.Annulus(0.0), 2000.0)
    lo, hi = _moments_windows(stream)
    got = stream.window_counter(lo, hi)
    want = lattice._searched(stream.chunks(), stream.N, lo, hi)
    assert got.shape == (2, 20_001) and np.array_equal(got, want)
    assert int(got.sum()) == 49_860


def test_moments_job_peaks_below_the_sweep():
    # the sector sweep of the same job peaked at 16.3 MB under tracemalloc
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    tracemalloc.start()
    try:
        stream = ld.direction_stream(lat, ld.Annulus(0.0), 2000.0)
        value = ld.mixed_moment(stream, [(0.0, 1.0), (0.5, 2.0)], ld.MomentSpec((1, 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_300_000
    assert value == 5.3994800259987  # the value of the sweep's counts, summed over its grid law


def test_reduction_stops_on_the_probe_window_and_on_axis_and_diagonal_rays():
    # the probe's window, 1.6e-11 turn wide on the ray of 70,711 points at T = 1e5
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.5, 0.5))
    stream = ld.direction_stream(lat, ld.Annulus(0.0), 1e5)
    alpha = math.atan2(1, -1) / (2.0 * math.pi) % 1.0
    assert int(ld.window_counts(stream, (-0.5, 0.5), alpha)) == 70_711
    # windows centred on the axes and diagonals, at large scale and against the set at a small one
    rays = np.arange(8) / 8.0
    for interval in ((-1e-3, 1e-3), (-0.5, 0.5), (-40.0, 40.0)):
        counts = ld.window_counts(stream, interval, rays)
        assert counts.shape == (8,) and np.all(counts >= 0)
        for shift in ((0.0, 0.0), (0.5, 0.5), (0.5, 0.0)):
            small = ld.AffineLatticeSpec(ld.Mat2.identity(), shift)
            dirs = ld.direction_set(small, ld.Square(), 40.0)
            assert np.array_equal(reduced(small, ld.Square(), 40.0, interval, rays),
                                  ld.window_counts(dirs, interval, rays))


def test_reduction_raises_past_its_step_cap(monkeypatch):
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    stream = ld.direction_stream(lat, ld.Annulus(0.0), 500.0)
    monkeypatch.setattr(lattice, "GAUSS_STEPS", 2)
    with pytest.raises(ld.LatdirError, match="did not settle in 2 steps"):
        ld.window_counts(stream, (-1.0, 1.0), [0.1, 0.2])


@pytest.mark.parametrize("budget, named", [(1_000_000, "window arcs"), (3_000_000, "reduced strips")])
def test_arcs_and_strips_are_refused_before_they_are_formed(monkeypatch, budget, named):
    # the moments job's 40,002 arcs weigh 2.6e6 values at ARC_VALUES, checked before any is formed,
    # and its 46,562 reduced strips 4.5e6 at STRIP_VALUES, checked a block at a time before the
    # strips of the block are formed
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    stream = ld.direction_stream(lat, ld.Annulus(0.0), 2000.0)
    stream.N
    monkeypatch.setattr(lattice, "DEFAULT_MAX_POINTS", budget)
    lo, hi = _moments_windows(stream)
    with pytest.raises(ld.CapacityError, match=named):
        stream.window_counter(lo, hi)



@pytest.mark.parametrize("basis, rays", [(ld.Mat2(1e8, 0.0, 0.0, 1e-8), (0.25, 0.75)),
                                         (ld.Mat2(0.0, 1e8, -1e-8, 0.0), (0.5, 0.0))])
def test_windows_ending_on_a_dense_axis_ray_take_each_half_whole(basis, rays):
    # the p1 = 0 strip holds 2e13 points whose turns are exactly those of r2 and -r2, on an axis:
    # a window that starts or ends on one of those rays takes each half whole or not at all
    lat = ld.AffineLatticeSpec(basis, (0.0, 0.5))
    stream = ld.direction_stream(lat, ld.Annulus(0.0), 1e5)
    half = 10**13
    tracemalloc.start()
    try:
        got = [[int(ld.window_counts(stream, interval, alpha)) for alpha in (*rays, rays[0] - 0.25)]
               for interval in ((-1.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (0.0, 0.5 * stream.N))]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [[half, half, 0], [half, half, 0], [0, 0, 0], [half, half, half]]
    assert peak < 2**25
