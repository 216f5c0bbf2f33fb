"""Guards on the sector path of ``direction_set``: its fallback and the cost of its cuts.

``direction_set`` cuts the kept strip ranges at K sector rays, sorts each
sector and sorts the whole array again only when an O(K) check finds two
sectors out of order.  A wrong cut must therefore cost time, never bytes,
and on the benchmark's direction sets no cut may be wrong.
"""

import numpy as np
import pytest

import latdir as ld
from latdir import lattice
from latdir.diophantine import CBRT2, CBRT4


def _spy(monkeypatch, name, record):
    """Replace lattice.<name> by a wrapper that passes its arguments and result to ``record``."""
    original = getattr(lattice, name)

    def wrapper(*args):
        result = original(*args)
        record(args, result)
        return result

    monkeypatch.setattr(lattice, name, wrapper)


def test_a_moved_cut_falls_back_to_one_sort(monkeypatch):
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    shape, T = ld.Annulus(0.0), 300.0
    pieces = lattice._sector_pieces

    def move_one_cut(*args):
        # the last point of a piece moves into the piece that follows it on its strip
        starts, counts, p1, sizes = (x.copy() for x in pieces(*args))
        nxt = {(p, s): j for j, (p, s) in enumerate(zip(p1.tolist(), starts.tolist()))}
        i = next(i for i in range(counts.size // 2, counts.size)
                 if counts[i] > 1 and (p1[i], starts[i] + counts[i]) in nxt)
        j = nxt[p1[i], starts[i] + counts[i]]
        sector = np.searchsorted(np.cumsum(sizes), np.cumsum(counts)[[i, j]] - 1, side="right")
        assert sector[0] != sector[1]
        counts[i] -= 1
        starts[j] -= 1
        counts[j] += 1
        sizes[sector] += [-1, 1]
        return starts, counts, p1, sizes

    monkeypatch.setattr(lattice, "_sector_pieces", move_one_cut)
    checks = []
    _spy(monkeypatch, "_in_order", lambda args, ok: checks.append(ok))
    got = ld.direction_set(lat, shape, T)
    want = ld.directions(ld.enumerate_points(lat, shape, T), T, shape)
    assert got.N == want.N and got.alphas.tobytes() == want.alphas.tobytes()
    assert checks == [False]


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
    checks, ranges, candidates = [], [], []
    _spy(monkeypatch, "_in_order", lambda args, ok: checks.append(ok))
    # the cut: nonempty ranges in, pieces out; every piece but a range's first starts at a cut
    _spy(monkeypatch, "_sector_pieces",
         lambda args, out: ranges.append((np.count_nonzero(args[4] > 0), out[0].size)))
    # the cut evaluates its candidates as (2, n) stacks; the fill and the sector tables in 1-D
    _spy(monkeypatch, "_turns", lambda args, _: candidates.append(args[2].size * (args[2].ndim == 2)))
    ld.direction_set(ld.AffineLatticeSpec(ld.Mat2(*basis), shift), shape, T)
    (kept, pieces), = ranges
    assert checks == [True]
    assert sum(candidates) <= 2 * (pieces - kept)


def test_sector_count_follows_the_point_count(monkeypatch):
    # K = N // SECTOR sectors, and K = 1 below 2 SECTOR: one piece per range, one sort
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (CBRT4, CBRT2))
    seen = []
    _spy(monkeypatch, "_sector_pieces", lambda args, out: seen.append((args[6], out[3].size)))
    for T in (100.0, 1000.0):
        dirs = ld.direction_set(lat, ld.Annulus(0.0), T)
        assert seen[-1] == (max(dirs.N // lattice.SECTOR, 1),) * 2
    assert seen[0][0] == 1 and seen[1][0] > 16
