"""The neighbour sweep of ``latdir.stats`` over a stream of sorted chunks.

``pair_correlation``, ``spacing_histogram`` and ``pair_correlation_integral``
take the directions as an iterator of sorted chunks: a ``DirectionSet``
gives its array as one chunk, a ``DirectionStream`` its sectors, each in
one reused buffer.  However the sequence is cut, every pair difference is
the same float operation, so the integer histogram counts, and with them
the output bytes, must not depend on the cut.  The cuts here go down to
chunks of one value, shorter than anything a block carries, and each
chunk's buffer is overwritten once the next one is drawn.
"""

import itertools

import numpy as np
import pytest

import latdir as ld
from latdir import lattice, stats

from oracles import brute_pair_integral

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class Chunked:
    """The angles of A as a stream cut before each index of ``cuts``, in one reused buffer."""

    def __init__(self, A, cuts):
        self.A, self.cuts, self.N = A, [0, *cuts, A.size], A.size

    def chunks(self):
        buf = np.empty(self.A.size)
        for a, b in zip(self.cuts[:-1], self.cuts[1:]):
            if a < b:
                buf[:b - a] = self.A[a:b]
                yield buf[:b - a]
                buf[:] = np.nan  # a value kept past its chunk without a copy would show


# near 0 and near 1 from below, where the wrap past 1 lifts a value by a whole turn
EDGE_ANGLES = [0.0, 5e-324, 1e-300, 2.0**-53, 1e-9, 0.5, 1.0 - 1e-9, 1.0 - 2.0**-52, 1.0 - 2.0**-53]


@st.composite
def angle_sets(draw):
    """Sorted angles in [0, 1) with repeats: uniform, on a dyadic grid (clusters of exact
    differences), next to 0 and 1, or a mix; and whether they all lie on the grid."""
    kind = draw(st.sampled_from(["uniform", "grid", "edges", "mix"]))
    grid = st.integers(0, 31).map(lambda k: k / 32)
    pick = {
        "uniform": st.floats(0.0, 1.0, exclude_max=True),
        "grid": grid,
        "edges": st.sampled_from(EDGE_ANGLES),
        "mix": st.floats(0.0, 1.0, exclude_max=True) | grid | st.sampled_from(EDGE_ANGLES),
    }[kind]
    A = np.sort(np.array(draw(st.lists(pick, min_size=2, max_size=40)), dtype=float))
    return A, kind == "grid"


@settings(derandomize=True, deadline=None, max_examples=80)
@given(case=angle_sets(), data=st.data())
def test_every_cut_gives_the_one_chunk_results(case, data):
    A, dyadic = case
    N = A.size
    whole = ld.DirectionSet(A, 10.0, ld.Annulus(0.0))
    cuts = sorted(data.draw(st.lists(st.integers(1, N - 1), max_size=N)))
    block = data.draw(st.sampled_from([1, 2, 5, stats._BLOCK]))
    # a reach of g / 32 of a turn ends exactly on the grid's pairs
    W = data.draw(st.floats(0.01, N / 2, exclude_max=True) | st.integers(1, 15).map(lambda g: N * g / 32))
    # inner edges at three decimals: no bin narrower than 0.001, whose density would overflow
    inner = np.clip(data.draw(st.lists(st.floats(-W, W).map(lambda x: round(x, 3)), max_size=4)), -W, W)
    edges = np.unique(np.concatenate([[-W, W], inner]))
    folded = np.unique(np.concatenate([[0.0, W], np.abs(inner)]))
    ks = list(range(1, min(N - 1, 5) + 1))
    spacing_edges = np.linspace(0.0, data.draw(st.sampled_from([0.5, 2.0, 6.0])), 7)
    # integer window ends, up to N - 1 long at up to N apart: the reach passes one turn
    ends = st.integers(-N, N)
    a1, a2 = data.draw(ends), data.draw(ends)
    I1 = (a1, a1 + data.draw(st.integers(1, N - 1)))
    I2 = (a2, a2 + data.draw(st.integers(1, N - 1)))
    rho = lambda a: 1.0 + 0.5 * np.cos(2 * np.pi * a)  # noqa: E731
    want = (ld.pair_correlation(whole, edges), ld.pair_correlation(whole, folded, fold=True),
            ld.pair_correlation(whole, edges, density=rho), ld.spacing_histogram(whole, ks, spacing_edges),
            ld.pair_correlation_integral(whole, I1, I2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_BLOCK", block)
        stream = Chunked(A, cuts)
        got = (ld.pair_correlation(stream, edges), ld.pair_correlation(stream, folded, fold=True),
               ld.pair_correlation(stream, edges, density=rho), ld.spacing_histogram(stream, ks, spacing_edges),
               ld.pair_correlation_integral(stream, I1, I2))
    assert got[0].masses.tobytes() == want[0].masses.tobytes()
    assert got[1].masses.tobytes() == want[1].masses.tobytes()
    np.testing.assert_allclose(got[2].masses, want[2].masses, rtol=1e-12)
    assert [h.masses.tobytes() for h in got[3]] == [h.masses.tobytes() for h in want[3]]
    if dyadic:  # every overlap and partial sum is an exact dyadic: the order of the sum cannot show
        assert got[4] == want[4]
    else:
        assert got[4] == pytest.approx(want[4], rel=1e-12, abs=1e-12)
    # past one turn a direction meets its own images, which are no pairs
    assert want[4] == pytest.approx(brute_pair_integral(whole, I1, I2), rel=1e-9, abs=1e-9)


def test_wrap_block_reads_the_lifted_sequence():
    # the last block of the sweep is a stretch L(N - c), L(N - c + 1), ... of the lifted sequence
    # L(i) = A[i mod N] + i div N, byte for byte concat(A, A + 1, A + 2, ...), past one turn
    # when the reach does (N = 5 here, so 7 and 14 reach one and two turns)
    for reach, A in itertools.product([1.5, 7.0, 14.0], [np.array([0.0, 1e-300, 0.3, 0.3, 1.0 - 1e-16]),
                                                        np.arange(5) / 5.0]):
        N = A.size
        lifted = np.concatenate([A + q for q in range(5)])
        Y, c, wrap = list(stats._sweep(N, iter([A]), reach / N))[-1]
        assert wrap and 0 < c <= N
        assert Y.tobytes() == lifted[N - c:N - c + Y.size].tobytes()
        assert lifted[N - c + Y.size] - A[-1] > reach / N  # and holds every lifted value in reach


def test_spacing_histogram_takes_one_k_or_a_sequence(regular8):
    edges = np.linspace(0.0, 4.0, 9)
    one = ld.spacing_histogram(regular8, 2, edges)
    many = ld.spacing_histogram(regular8, [3, 2], edges)
    assert isinstance(one, ld.Histogram) and len(many) == 2
    assert many[1].masses.tobytes() == one.masses.tobytes()
    assert many[0].masses.tobytes() == ld.spacing_histogram(regular8, 3, edges).masses.tobytes()
    for bad in (0, 8, [1, 8], [], [1.5]):
        with pytest.raises(ld.InvalidInputError):
            ld.spacing_histogram(regular8, bad, edges)


def test_stream_checks_the_sector_order(monkeypatch):
    # the sectors must follow each other: a sector that starts below the end of the one before,
    # or an angle of 1, is refused, as DirectionSet refuses an unsorted array
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.3, 0.7))
    stream = ld.direction_stream(lat, ld.Annulus(0.0), 20.0)
    assert stream.N == ld.direction_set(lat, ld.Annulus(0.0), 20.0).N
    for sectors in ([np.array([0.1, 0.5]), np.array([0.4, 0.6])], [np.array([0.1, 1.0])]):
        monkeypatch.setattr(lattice, "_sorted_sectors", lambda *args, s=sectors: iter(s))
        with pytest.raises(ld.LatdirError, match="sector"):
            list(stream.chunks())
