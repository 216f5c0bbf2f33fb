"""Guards on the sector path of ``direction_set``: its checked cut and the cost of its cuts.

``direction_set`` cuts the kept strip ranges at K sector rays, checks the
first and last point of every piece by its own angle, cuts a range that
fails that check again point by point, and sorts each sector.  A wrong
cut must therefore cost time, never bytes, and on the benchmark's
direction sets no cut may be wrong.
"""

import numpy as np
import pytest

import latdir as ld
from latdir import lattice
from latdir.diophantine import CBRT2, CBRT4


def _spy(monkeypatch, name, record):
    """Replace lattice.<name> by a wrapper that passes its arguments and result to ``record``."""
    original = getattr(lattice, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        record(args, result)
        return result

    monkeypatch.setattr(lattice, name, wrapper)


def test_a_moved_cut_is_cut_again_point_by_point(monkeypatch):
    # crossings moved far past their bands put whole runs of points in the wrong sector: the
    # check of the piece ends must find those ranges and decide them point by point
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    shape, T = ld.Annulus(0.0), 300.0
    want = ld.directions(ld.enumerate_points(lat, shape, T), T, shape)
    assert want.N // lattice.SECTOR > 1
    slots, recut = lattice._slots, []

    def moved(s, n, a, tol, w, xi2, crossed):
        recut.append(int(np.isinf(tol).sum()))
        return slots(s, n, a, tol, w + 0.01 * (1.0 + np.abs(w)), xi2, crossed)

    monkeypatch.setattr(lattice, "_slots", moved)
    got = ld.direction_set(lat, shape, T)
    assert got.N == want.N and got.alphas.tobytes() == want.alphas.tobytes()
    assert max(recut) > 0


@pytest.mark.parametrize("basis, shift, shape, T", [
    ((1.0, 0.0, 0.0, 1.0), (CBRT4, CBRT2), ld.Annulus(0.0), 500.0),
    ((1.0, 0.0, 0.0, 1.0), (CBRT4, CBRT2), ld.Annulus(0.0), 1000.0),
    ((1.0, 0.0, 1000.0, 1.0), (0.5, 1 / 3), ld.Square(), 700.0),
    ((1.0, 0.0, 20000.0, 1.0), (CBRT4, CBRT2), ld.Annulus(0.5), 300.0),
    ((1.0, 0.0, 0.0, 1.0), (0.5, 0.5), ld.Annulus(0.0), 250.0),
    ((1.0, 0.0, 0.0, 1.0), (0.5, 0.5), ld.Annulus(0.0), 500.0),
    ((1.0, 0.0, 0.0, 1.0), (0.5, 0.5), ld.Annulus(0.0), 1000.0),
])
def test_benchmark_direction_sets_need_no_fallback(monkeypatch, basis, shift, shape, T):
    # the finite-scale, skewed-square, shear and singular-probe sets of perfbench
    ranges, slots = [], []
    # the cut: nonempty ranges in, pieces out; a range's first piece, one piece past each
    # crossing, and one piece for each point next to a crossing that the float test decides
    _spy(monkeypatch, "_cut", lambda args, out: ranges.append((np.count_nonzero(args[4] > 0), out[0].size)))
    _spy(monkeypatch, "_slots", lambda args, out: slots.append(int(out[5].sum())))
    ld.direction_set(ld.AffineLatticeSpec(ld.Mat2(*basis), shift), shape, T)
    (kept, pieces), = ranges
    crossings = pieces - kept - sum(slots)
    assert len(slots) == 3  # one solve per strip group: the check cut no range again
    assert sum(slots) <= crossings


def test_sector_count_follows_the_point_count(monkeypatch):
    # K = N // SECTOR sectors, and K = 1 below 2 SECTOR: one piece per range, one sort
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    seen = []
    _spy(monkeypatch, "_cut", lambda args, out: seen.append((args[6].size, int(out[3].max()) + 1)))
    for T in (100.0, 1000.0):
        dirs = ld.direction_set(lat, ld.Annulus(0.0), T)
        assert seen[-1] == (max(dirs.N // lattice.SECTOR, 1),) * 2
    assert seen[0][0] == 1 and seen[1][0] > 16


def test_thin_annulus_checks_the_crossings_it_cuts(monkeypatch):
    # a thin annulus holds few points on many strips, and each strip's ranges cross few of the
    # K rays: 4000 strips times K = 976 rays pass the budget, the 13k crossings cut do not
    monkeypatch.setattr(lattice, "SECTOR", 256)
    monkeypatch.setattr(lattice, "DEFAULT_MAX_POINTS", 1_000_000)
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    shape, T = ld.Annulus(0.99), 2000.0
    got = ld.direction_set(lat, shape, T)
    want = ld.directions(ld.enumerate_points(lat, shape, T), T, shape)
    assert got.N // lattice.SECTOR * 4 * (2 * T) > lattice.DEFAULT_MAX_POINTS
    assert got.alphas.tobytes() == want.alphas.tobytes()


def test_crossings_past_the_budget_are_refused(monkeypatch):
    # K = 1963 rays of 16 angles each on a disc of N = 31422: 126k crossings at 10 values each
    monkeypatch.setattr(lattice, "SECTOR", 16)
    monkeypatch.setattr(lattice, "DEFAULT_MAX_POINTS", 1_000_000)
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    with pytest.raises(ld.CapacityError, match="ray crossings"):
        ld.direction_set(lat, ld.Annulus(0.0), 100.0)
    monkeypatch.setattr(lattice, "DEFAULT_MAX_POINTS", 2_000_000)
    assert ld.direction_set(lat, ld.Annulus(0.0), 100.0).N == 31422
