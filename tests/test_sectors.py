"""Guards on the sector path of ``direction_set``: its frames, its repair and the cost of its strips.

``direction_set`` splits the circle into K sectors, each into arcs of at
most 1/8 turn, maps each arc's sector onto a triangle by its reduced frame,
takes the certified interior of each reduced strip whole, decides the rest
and the ends of every interior point by point, and sorts each sector.  A
wrong interior must therefore cost time, never bytes, and on the
benchmark's direction sets no interior may be wrong.
"""

import numpy as np
import pytest

import latdir as ld
from latdir import lattice
from latdir.diophantine import CBRT2, CBRT4

from oracles import brute_kept_points, brute_turns


def _spy(monkeypatch, name, record, owner=lattice):
    """Replace owner.<name> by a wrapper that passes its arguments and result to ``record``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        record(args, result)
        return result

    monkeypatch.setattr(owner, name, wrapper)


def _zone_solves(monkeypatch):
    """The number of ``_zones`` solves in each ``_arc_ranges`` call, appended as each call returns."""
    solves, active = [], []
    arc_ranges, zones = ld.DirectionStream._arc_ranges, lattice._zones

    def counted_arcs(self, *args):
        active.append(0)
        try:
            return arc_ranges(self, *args)
        finally:
            solves.append(active.pop())

    def counted_zones(*args):
        if active:
            active[-1] += 1
        return zones(*args)

    monkeypatch.setattr(ld.DirectionStream, "_arc_ranges", counted_arcs)
    monkeypatch.setattr(lattice, "_zones", counted_zones)
    return solves


def _widened(zones):
    """``_zones`` with every candidate range and nonempty interior widened by 3 integers at each end.

    The interior then reaches past the arc or the domain, wrongly: the check of its ends must
    find it.  An emptied interior stays empty, so the strips decided again keep their ranges.
    """
    def moved(lo, hi, ilo, ihi, *rest):
        held = ihi >= ilo
        return zones(lo - 3, hi + 3, np.where(held, ilo - 3, ilo), np.where(held, ihi + 3, ihi), *rest)

    return moved


def test_a_wrong_interior_is_decided_again_point_by_point(monkeypatch):
    # interiors widened past their certified ends take points past the arc or the circle: the
    # check of the interior ends must find those strips and decide them point by point
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    shape, T = ld.Annulus(0.0), 300.0
    want = ld.directions(ld.enumerate_points(lat, shape, T), T, shape)
    assert want.N // lattice.SECTOR > 1
    stream = ld.direction_stream(lat, shape, T)
    stream.N  # the m1-strips are solved before the interiors are moved
    interiors = []
    monkeypatch.setattr(lattice, "_zones", _widened(lattice._zones))
    _spy(monkeypatch, "_zones", lambda args, out: interiors.append(int(np.count_nonzero(args[3] >= args[2]))))
    got = np.concatenate([vals.copy() for vals in stream.chunks()])
    assert got.tobytes() == want.alphas.tobytes()
    assert len(interiors) > 1 and interiors[-1] < interiors[0]  # some strips were decided again


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
    # the finite-scale, skewed-square, shear and singular-probe sets of perfbench: every reduced
    # strip's interior ends pass their check, so each call solves its zones once
    solves = _zone_solves(monkeypatch)
    dirs = ld.direction_set(ld.AffineLatticeSpec(ld.Mat2(*basis), shift), shape, T)
    assert solves and set(solves) == {1}
    assert dirs.N > 100_000


def test_sector_count_follows_the_point_count(monkeypatch):
    # K = N // SECTOR sectors, and K = 1 below 2 SECTOR: the whole circle, framed as its two
    # halves of four arcs each; at K >= 8 every sector is one arc
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    arcs = []
    _spy(monkeypatch, "_frames", lambda args, out: arcs.append(args[3].size))
    for T, arc_count in ((100.0, 8), (1000.0, 23)):
        stream = ld.direction_stream(lat, ld.Annulus(0.0), T)
        chunks = sum(1 for _ in stream.chunks())
        assert chunks == max(stream.N // lattice.SECTOR, 1)
        assert arcs[-1] == arc_count
    assert chunks == 23


@pytest.mark.parametrize("K", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("basis", [ld.Mat2.identity(), ld.Mat2(2.0, -0.2, 0.0, 0.5)])
@pytest.mark.parametrize("shift", [(0.5, 1 / 3), (CBRT4, CBRT2)])
@pytest.mark.parametrize("shape, T", [(ld.Annulus(0.0), 50.0), (ld.Square(), 40.0)])
def test_sectors_wider_than_an_eighth_turn(monkeypatch, K, basis, shift, shape, T):
    # fewer than 8 sectors split into arcs of at most 1/8 turn, ceil(8 / K) each, and K = 1, the
    # whole circle, into its two halves: every arc's points, and only those, land in its sector
    want = brute_turns(brute_kept_points(basis.array(), shift, shape, T))
    monkeypatch.setattr(lattice, "SECTOR", want.size // K)
    assert want.size // lattice.SECTOR == K
    arcs = []
    _spy(monkeypatch, "_frames", lambda args, out: arcs.append(args[3].size))
    chunks = [vals.copy() for vals in ld.direction_stream(ld.AffineLatticeSpec(basis, shift), shape, T).chunks()]
    assert np.concatenate(chunks).tobytes() == want.tobytes()
    assert len(chunks) == K
    assert arcs == [max(K, 2) * -(-8 // max(K, 2))]


def test_thin_annulus_checks_the_crossings_it_cuts(monkeypatch):
    # a thin annulus holds few points on many strips, and each sector's frames cross few of them:
    # 4000 strips times K = 976 sectors pass the budget, the 70k reduced strips framed do not
    monkeypatch.setattr(lattice, "SECTOR", 256)
    monkeypatch.setattr(lattice, "DEFAULT_MAX_POINTS", 3_000_000)
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    shape, T = ld.Annulus(0.99), 2000.0
    got = ld.direction_set(lat, shape, T)
    want = ld.directions(ld.enumerate_points(lat, shape, T), T, shape)
    assert got.N // lattice.SECTOR * 4 * (2 * T) > lattice.DEFAULT_MAX_POINTS
    assert got.alphas.tobytes() == want.alphas.tobytes()


def test_crossings_past_the_budget_are_refused(monkeypatch):
    # K = 1963 sectors of 16 angles each on a disc of N = 31422: the sweep's work past its
    # strips, once its ray crossings, is its 8259 reduced strips at STRIP_COST values each
    monkeypatch.setattr(lattice, "SECTOR", 16)
    monkeypatch.setattr(lattice, "DEFAULT_MAX_POINTS", 250_000)
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    with pytest.raises(ld.CapacityError, match="8259 reduced strips"):
        ld.direction_set(lat, ld.Annulus(0.0), 100.0)
    monkeypatch.setattr(lattice, "DEFAULT_MAX_POINTS", 300_000)
    assert ld.direction_set(lat, ld.Annulus(0.0), 100.0).N == 31422


def test_reduced_strips_past_the_budget_are_refused(monkeypatch):
    # a thin annulus holds few points on many strips: at K = 976 sectors of 256 angles its N =
    # 250,066 points and 4000 m1-strips pass a budget of 1e6 values, but its sectors' frames hold
    # 70,234 reduced strips, which at STRIP_COST directions each weigh 2.2e6
    monkeypatch.setattr(lattice, "SECTOR", 256)
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    shape, T = ld.Annulus(0.99), 2000.0
    want = ld.directions(ld.enumerate_points(lat, shape, T), T, shape)
    assert ld.expected_count(shape, T) < 1_000_000 and 4000 * lattice.STRIP_VALUES < 1_000_000
    monkeypatch.setattr(lattice, "DEFAULT_MAX_POINTS", 1_000_000)
    with pytest.raises(ld.CapacityError, match="reduced strips"):
        ld.direction_set(lat, shape, T)
    monkeypatch.setattr(lattice, "DEFAULT_MAX_POINTS", 20_000_000)
    assert ld.direction_set(lat, shape, T).alphas.tobytes() == want.alphas.tobytes()
