"""Window counts and mixed moments over a direction stream.

``window_counts`` takes the counts of its windows from the source's
``window_counter``: one walk over ``dirs.chunks()`` (``lattice._below``)
for a ``DirectionSet``, whose array is one chunk, or for a
``DirectionStream`` whose reduced strips would cost more than a sweep,
whose sectors are the chunks, each in one reused buffer; otherwise a stream
counts on reduced strips.  The counts are integers and must be the same
either way, and so must every bit of a moment built on them.
``latdir moments`` runs ``mixed_moment`` on the stream, the path the
library exposes.
"""

import sys

import numpy as np
import pytest

import latdir as ld
from latdir import cli, lattice, stats
from latdir.diophantine import CBRT2, CBRT4

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPS = settings(derandomize=True, deadline=None, max_examples=100)


def _chunks(a, cuts):
    """``a`` cut before each index of ``cuts`` into nonempty pieces, each in one reused buffer."""
    buf = np.empty(a.size)
    bounds = sorted({0, a.size, *cuts})
    for lo, hi in zip(bounds, bounds[1:]):
        buf[:hi - lo] = a[lo:hi]
        yield buf[:hi - lo]
        buf[:] = np.nan


@PROPS
@given(st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 0.9375]), min_size=1, max_size=40),
       st.lists(st.integers(1, 39), max_size=6),
       st.lists(st.sampled_from([0.0, 0.1, 0.125, 0.25, 0.3, 0.5, 0.75, 0.9375, 0.99, 1.0]), min_size=1))
def test_below_is_a_left_search_of_the_whole_sequence(values, cuts, ends):
    # repeated values, ends on a value, at 0, past the last value and at 1, and chunks of one value
    a = np.sort(np.array(values, dtype=float))
    ends = np.array(ends).reshape(1, -1)
    got = lattice._below(_chunks(a, [c for c in cuts if c < a.size]), a.size, ends)
    assert got.shape == ends.shape
    assert np.array_equal(got, np.searchsorted(a, ends, side="left"))


LATTICES = [
    (ld.AffineLatticeSpec(ld.Mat2.identity(), (0.3, 0.7)), ld.Annulus(0.0), 40.0),
    (ld.AffineLatticeSpec(ld.Mat2.identity(), (0.5, 0.5)), ld.Annulus(0.0), 40.0),  # repeated directions
    (ld.AffineLatticeSpec(ld.Mat2(1.0, 0.0, 3.0, 1.0), (1 / 3, 1 / 4)), ld.Square(), 30.0),
    (ld.AffineLatticeSpec(ld.Mat2(2.0, 0.5, 1.0, 0.75), (0.1, 0.2)), ld.Annulus(0.4), 50.0),
]


@pytest.mark.parametrize("lat, shape, T", LATTICES)
def test_stream_counts_and_moments_equal_those_of_the_direction_set(monkeypatch, lat, shape, T):
    monkeypatch.setattr(lattice, "SECTOR", 64)  # dozens of sectors instead of one
    dirs = ld.direction_set(lat, shape, T)
    stream = ld.direction_stream(lat, shape, T)
    sectors = [c.copy() for c in stream.chunks()]
    N = dirs.N
    assert stream.N == N and len(sectors) > 20
    assert np.array_equal(np.concatenate(sectors), dirs.alphas)
    gaps = [(x[-1] + y[0]) / 2 for x, y in zip(sectors, sectors[1:]) if x[-1] < y[0]]
    alphas = np.concatenate([
        [0.0, 1.0 - 1e-4, 1.0 - 0.5 / N],  # ends at 0, windows that wrap past 1
        dirs.alphas[:: max(N // 50, 1)],  # an end on a direction value (a = 0 keeps alpha exact)
        [x[-1] for x in sectors] + [x[0] for x in sectors],  # the first and last value of each sector
        gaps,  # ends in the gap between two sectors
        np.linspace(0.0, 1.0, 301),
    ])
    assert gaps
    for interval in [(0.0, 3.0), (-2.0, 1.0), (0.0, 2.0 * N), [(0.0, 3.0), (-2.0, 1.0)], [(0.0, 1.0), (0.5, 2.0)]]:
        want = ld.window_counts(dirs, interval, alphas)
        got = ld.window_counts(stream, interval, alphas)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert ld.window_counts(stream, (0.0, 2.0 * N), alphas).tolist() == [N] * alphas.size
    box = [(0.0, 1.0), (0.5, 2.0)]
    for spec, shifted in [(ld.MomentSpec((1, 1)), False), (ld.MomentSpec((0.5 + 1j, -1)), True),
                          (ld.MomentSpec((2, 1), cap=3), False)]:
        lam = ld.MeasureSpec.uniform(997)
        want = ld.mixed_moment(dirs, box, spec, lam, shifted=shifted)
        got = ld.mixed_moment(stream, box, spec, lam, shifted=shifted)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_latdir_moments_runs_the_public_moment_on_the_stream(tmp_path, monkeypatch):
    # the command counts through stats.mixed_moment and stats.window_counts, once each, as the
    # benchmark's tracer sees them: wrapped in every latdir module that binds them
    argv = ["moments", "--xi", "cbrt4,cbrt2", "--T", "80", "--I", "0:1", "--I", "0.5:2", "--s", "1,1"]
    want = tmp_path / "want.json"
    assert cli.main([*argv, "--out", str(want)]) == 0
    calls = []
    for name in ("mixed_moment", "window_counts"):
        orig = getattr(stats, name)

        def counted(dirs, *args, _orig=orig, _name=name, **kwargs):
            calls.append((_name, type(dirs)))
            return _orig(dirs, *args, **kwargs)

        for mod in [m for k, m in sys.modules.items() if k == "latdir" or k.startswith("latdir.")]:
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    got = tmp_path / "got.json"
    assert cli.main([*argv, "--out", str(got)]) == 0
    assert calls == [("mixed_moment", ld.DirectionStream), ("window_counts", ld.DirectionStream)]
    assert got.read_bytes() == want.read_bytes()


def test_small_grid_moment_on_the_stream_cuts_without_a_sweep(monkeypatch):
    # 3 grid points and 2 windows take a few reduced strips, far fewer than the N = 3.1M
    # directions at T = 1000: the stream counts on them and forms no sector, with the moment bits
    # of the direction set
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    shape, T = ld.Annulus(0.0), 1000.0
    box, spec, lam = [(0.0, 1.0), (0.5, 2.0)], ld.MomentSpec((1, 1)), ld.MeasureSpec.uniform(3)
    want = ld.mixed_moment(ld.direction_set(lat, shape, T), box, spec, lam)
    stream = ld.direction_stream(lat, shape, T)
    assert stream.N // lattice.SECTOR == 23
    sweeps = []
    sectors = lattice._sorted_sectors
    monkeypatch.setattr(lattice, "_sorted_sectors", lambda *args: sweeps.append(1) or sectors(*args))
    got = ld.mixed_moment(stream, box, spec, lam)
    assert sweeps == []
    assert np.array([got]).tobytes() == np.array([want]).tobytes()
