"""Property tests for the blocked neighbour sweep of ``latdir.stats``.

The sweep takes the directions in blocks of ``stats._BLOCK`` values, each
after the values carried from the blocks before it.  Passes d = 1, 2, ...
go over every value of a block until one keeps fewer than 1 in
``stats._SPARSE``, and the pairs of the values it kept are then gathered.
The cases below switch from the passes over all j to the survivors at
pass 1, mid-way or never, as counted over the whole set.  With the block
patched down to a few values, ``spacing_histogram`` and
``pair_correlation`` must still match their ``np.histogram`` references
byte for byte (the density-weighted one within 1e-12), and
``pair_correlation_integral`` the overlap-sum oracle within 1e-12.
"""

import numpy as np
import pytest

import latdir as ld
from latdir import stats

from oracles import histogram_spacings, pair_overlap_sum, two_histogram_pair_correlation

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _pass_counts(A, reach):
    """Number of j kept by each neighbour pass d = 1, 2, ... up to the first that keeps none."""
    N = A.size
    aug = np.concatenate([A, A + 1.0])
    counts = []
    for d in range(1, N):
        counts.append(int(np.sum(aug[d : d + N] - A <= reach / N)))
        if not counts[-1]:
            break
    return counts


@st.composite
def pass_cases(draw):
    """A sorted direction set and a reach W < N/2 whose passes switch to gathering at pass 1,
    mid-way or never, with repeated angles in most of them."""
    switch = draw(st.sampled_from(["pass-1", "mid-way", "never"]))
    if switch == "never":
        # a regular n-gon, each direction r <= 3 times: every pass keeps at least a third of
        # the j until pass r (m + 1), which keeps none
        n, r = draw(st.integers(2, 40)), draw(st.integers(1, 3))
        A = np.repeat(np.arange(n) / n, r)
        W = r * (draw(st.integers(0, max(0, n // 2 - 1))) + 0.5)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(8, 150) if switch == "pass-1" else st.integers(40, 150))
        A = np.sort(rng.uniform(0.0, 1.0, n))
        grid = draw(st.sampled_from([0, 2, 8]))  # a grid of n * grid cells repeats some angles
        if grid:
            A = np.floor(A * n * grid) / (n * grid)
        W = draw(st.floats(0.01, 0.2) if switch == "pass-1" else st.floats(1.5, 8.0))
    counts = _pass_counts(A, W)
    if switch == "pass-1":
        assume(4 * counts[0] < A.size)
    elif switch == "mid-way":
        assume(4 * counts[0] >= A.size and any(0 < 4 * c < A.size for c in counts))
    else:
        assert all(4 * c >= A.size for c in counts[:-1]) and counts[-1] == 0
    return ld.DirectionSet(A, 10.0, ld.Annulus(0.0)), W


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(derandomize=True, deadline=None, max_examples=25)
@given(case=pass_cases(), data=st.data())
def test_blocked_passes_match_references(block, case, data):
    # blocks far smaller than the default put N off a multiple of the block, the wrap past 1
    # inside the last block, and every switch point inside some block
    dirs, W = case
    N = dirs.N
    # inner edges on whole numbers (exact differences of the n-gons) or on two decimals
    cut = st.integers(-int(W), int(W)).map(float) | st.floats(-W, W).map(lambda x: round(x, 2))
    cuts = np.clip(data.draw(st.lists(cut, min_size=1, max_size=6)), -W, W)
    edges = np.unique(np.concatenate([[-W, W], cuts]))
    folded = np.unique(np.concatenate([[0.0, W], np.abs(cuts)]))
    k = data.draw(st.integers(1, N - 1))
    spacing_edges = np.linspace(data.draw(st.sampled_from([-1.0, 0.0, 0.5])), 2.0 * k, 9)
    # windows inside +-0.6 min(N, 10): the reach stays below N, where the oracle's passes end
    scale = min(N, 10)
    a1, a2 = (scale * data.draw(st.floats(-0.2, 0.2)) for _ in range(2))
    I1, I2 = ((a, a + scale * data.draw(st.floats(0.05, 0.2))) for a in (a1, a2))
    rho = lambda a: 1.0 + 0.5 * np.cos(2 * np.pi * a)  # noqa: E731
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_BLOCK", block)
        assert ld.spacing_histogram(dirs, k, spacing_edges).masses.tobytes() == \
            histogram_spacings(dirs, k, spacing_edges).tobytes()
        assert ld.pair_correlation(dirs, edges).masses.tobytes() == \
            two_histogram_pair_correlation(dirs, edges).tobytes()
        assert ld.pair_correlation(dirs, folded, fold=True).masses.tobytes() == \
            two_histogram_pair_correlation(dirs, folded, fold=True).tobytes()
        np.testing.assert_allclose(ld.pair_correlation(dirs, edges, density=rho).masses,
                                   two_histogram_pair_correlation(dirs, edges, density=rho), rtol=1e-12)
        assert ld.pair_correlation_integral(dirs, I1, I2) == \
            pytest.approx(pair_overlap_sum(dirs, I1, I2), rel=1e-12, abs=1e-12)
