"""Property tests for the histogram binning of ``latdir.stats``.

``stats._bin_sums`` sorts float32 keys of a block's values and searches
them for the keys of the edges; only where a value shares an edge's key
is it compared with the edge in float64.  The counts must still be those
of ``np.histogram`` on the float64 values.  The cases put values exactly
on an edge, one ulp to either side of it and elsewhere inside its float32
cell, repeat them, and include -0.0 and many exact zeros; the edges come
from ``parse_bins`` grids, random increasing floats, the realized values
themselves, and the neighbourhoods of 1e-300 and 1e300, where the keys
underflow to 0 or overflow to inf.  ``spacing_histogram`` and
``pair_correlation``, signed and folded, must match their references in
``tests/oracles.py`` byte for byte, with the sweep's block patched down
so that a set spans many blocks.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latdir as ld
from latdir import stats
from latdir.cli import parse_bins

from oracles import histogram_spacings, two_histogram_pair_correlation

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPS = settings(derandomize=True, deadline=None, max_examples=60)


def _near(x):
    """x, one ulp to either side of it, and floats inside its float32 cell (its key as float64, and
    the points between)."""
    k = float(np.float32(x)) if abs(x) < 3e38 else x
    return [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf), k, 0.5 * (x + k),
            np.nextafter(k, -np.inf), np.nextafter(k, np.inf)]


def _edges(draw, values, lo, hi):
    """Strictly increasing edges from lo to hi: a ``parse_bins`` grid, random floats, floats on and
    around some of ``values``, or floats near 0."""
    kind = draw(st.sampled_from(["grid", "random", "on-values", "tiny"]))
    if kind == "grid":
        n = draw(st.integers(1, 40))
        lo, hi = float(lo), float(hi)
        e = parse_bins(f"{lo!r}:{hi!r}:{(hi - lo) / n or hi - lo!r}")  # one step where n steps underflow
    elif kind == "random":
        e = draw(st.lists(st.floats(lo, hi), max_size=12))
    elif kind == "on-values":
        picks = draw(st.lists(st.sampled_from(values), max_size=6)) if len(values) else []
        e = [y for x in picks for y in _near(x)]
    else:  # the neighbourhood of 0: keys that underflow to +-0 beside exact zeros
        e = draw(st.lists(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 3e-301, -3e-301, 1e-310, 1e-45]),
                          max_size=6))
    e = np.unique(np.concatenate([[lo, hi], np.asarray(e, dtype=float)]))
    return e[(e >= lo) & (e <= hi) & np.isfinite(e)]


@st.composite
def value_blocks(draw):
    """Values on and around a few anchors (with -0.0 and many exact zeros), and edges among them."""
    anchors = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0 / 3.0, 1.0, 2.5, 1e-300, 1e300, 7.0]),
                            min_size=1, max_size=4))
    pool = [y for a in anchors for x in (a, -a) for y in _near(x)] + [-0.0]
    vals = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80)), dtype=float)
    zeros = draw(st.integers(0, 40))
    vals = np.concatenate([vals, np.zeros(zeros)])
    np.random.default_rng(draw(st.integers(0, 2**32 - 1))).shuffle(vals)
    lo, hi = sorted(draw(st.sampled_from(pool + [-8.0, 8.0])) for _ in range(2))
    if not lo < hi:
        lo, hi = -8.0, 8.0
    return vals, _edges(draw, np.unique(pool), lo, hi)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=value_blocks())
def test_bin_sums_match_np_histogram(case):
    vals, edges = case
    plus, minus = stats._bin_sums(vals, edges, stats._keys(edges), None, True)
    assert plus.tolist() == np.histogram(vals, edges)[0].tolist()
    assert minus.tolist() == np.histogram(-vals, edges)[0].tolist()
    assert stats._bin_sums(vals, edges, stats._keys(edges), None, False)[1] is None


@pytest.mark.parametrize("tied", [1, stats._FEW, stats._FEW + 1, 21])
def test_bin_sums_decide_shared_keys_either_way(tied):
    # edges at +-1e-300 have the key 0 of the zeros: up to _FEW such edges are counted one by one
    # in float64, more through one sorted cell, and both give the np.histogram counts
    edges = np.unique(np.concatenate([[-1.0], np.linspace(-1e-300, 1e-300, tied), [1.0]]))
    vals = np.concatenate([np.zeros(50), [-0.0, 1e-300, -1e-300, 5e-301, 1e-310, -1e-310, 0.5, -0.5]])
    assert np.count_nonzero(np.isin(stats._keys(edges), stats._keys(vals))) == tied
    plus, minus = stats._bin_sums(vals, edges, stats._keys(edges), None, True)
    assert plus.tolist() == np.histogram(vals, edges)[0].tolist()
    assert minus.tolist() == np.histogram(-vals, edges)[0].tolist()


def _assert_same(hist, want):
    """The histogram's masses are the reference's bytes; where the reference overflows (a bin too
    narrow for its count), the histogram raises InvalidInputError."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        want = want()
    if np.all(np.isfinite(want)):
        assert hist().masses.tobytes() == want.tobytes()
    else:
        with pytest.raises(ld.InvalidInputError, match="too narrow"):
            hist()


@st.composite
def direction_sets(draw):
    """A sorted direction set, with repeated angles (exact zero differences) in most of them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 120))
    A = np.sort(rng.uniform(0.0, 1.0, n))
    cells = draw(st.sampled_from([0, 2, n // 2, n]))  # a grid of few cells repeats many angles
    if cells:
        A = np.floor(A * cells) / cells
    return ld.DirectionSet(A, 10.0, ld.Annulus(0.0))


def _near_differences(dirs, W):
    """The oracle's scaled differences within reach W, the values ``pair_correlation`` bins."""
    A, N = dirs.alphas, dirs.N
    aug = np.concatenate([A, A + 1.0])
    d = np.concatenate([aug[j + 1:j + N] - A[j] for j in range(N)]) * N
    return np.unique(d[d <= W])


@pytest.mark.parametrize("block", [7, 64, stats._BLOCK])
@PROPS
@given(dirs=direction_sets(), data=st.data())
def test_spacing_histogram_matches_np_histogram(block, dirs, data):
    N = dirs.N
    k = data.draw(st.integers(1, N - 1))
    A = dirs.alphas
    spacings = np.unique(N * (np.concatenate([A[k:], A[:k] + 1.0]) - A))
    lo, hi = data.draw(st.sampled_from([(0.0, 2.0 * k), (-1.0, float(k)), (0.0, 1e308), (1e-300, 1e300),
                                        (-1e-300, 1e-300), (0.5 * k, 1.5 * k)]))
    edges = _edges(data.draw, spacings, lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_BLOCK", block)
        _assert_same(lambda: ld.spacing_histogram(dirs, k, edges), lambda: histogram_spacings(dirs, k, edges))


@pytest.mark.parametrize("block", [7, 64, stats._BLOCK])
@PROPS
@given(dirs=direction_sets(), data=st.data())
def test_pair_correlation_matches_np_histogram(block, dirs, data):
    N = dirs.N
    W = data.draw(st.sampled_from([1e-300, 0.25, 1.0, 0.49 * N]))
    diffs = _near_differences(dirs, W)
    values = np.concatenate([diffs, -diffs])
    signed = _edges(data.draw, values, -W, W)
    folded = _edges(data.draw, diffs, 0.0, W)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_BLOCK", block)
        _assert_same(lambda: ld.pair_correlation(dirs, signed), lambda: two_histogram_pair_correlation(dirs, signed))
        _assert_same(lambda: ld.pair_correlation(dirs, folded, fold=True),
                     lambda: two_histogram_pair_correlation(dirs, folded, fold=True))


@pytest.mark.parametrize("argv, prefix", [
    (["spacings", "--T", "30", "--bins", "0:1e308:1e307"], "f8ce3ea698ba"),  # edge keys overflow to inf
    (["paircorr", "--T", "30", "--bins=-1e-300:1e-300:1e-301"], "fadf942c9337"),  # every key is 0
    (["paircorr", "--T", "40", "--xi", "1/2,1/3", "--fold", "--bins", "0:2:0.25"], "6bd3139e5862"),  # zeros
])
def test_extreme_bins_keep_their_bytes(tmp_path, argv, prefix):
    out = tmp_path / "h.csv"
    src = str(Path(ld.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "latdir", *argv, "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and not run.stderr, run.stderr
    body = out.read_bytes().partition(b"\n")[2]
    assert hashlib.sha256(body).hexdigest()[:12] == prefix
