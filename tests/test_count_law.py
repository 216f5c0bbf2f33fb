"""Property tests of the array-backed count law (latdir.stats.CountDistribution).

Random per-block count vectors (m = 1, 2, 3; blocks of uneven sizes) are
reduced to per-block tables and merged into a count law, as the sampler
does, and every statistic is recomputed by brute force from the raw
per-sample rows: the distinct rows and block histogram, plain and
median-of-means moments, survival and the tail exponent.  The tables'
merge must also equal the one-pass merge of all rows in ``oracles``.

The grid law of the finite scale (``window_count_law``) holds quadrature
weights in one block: its rows and weights are checked against
``np.unique`` and ``np.bincount`` of the window counts, and the mixed
moment, its weighted sum, against the per-grid-point sum of ``oracles``.
"""

import math
from collections import Counter

import numpy as np
import pytest

import latdir as ld
from latdir import limit, stats
from latdir.stats import _count_table, _merge_tables

from oracles import grid_moment, merge_blocks

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def sample_blocks(draw, ms=(1, 2, 3)):
    """Per-block int64 arrays of shape (n_b, m), with uneven block sizes."""
    m = draw(st.sampled_from(ms))
    top = draw(st.sampled_from([1, 3, 8, 40]))
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=7))
    return [
        np.array(draw(st.lists(st.lists(st.integers(0, top), min_size=m, max_size=m),
                               min_size=nb, max_size=nb)), dtype=np.int64).reshape(nb, m)
        for nb in sizes
    ]


def _law(blocks):
    return _merge_tables([_count_table(b)[:2] for b in blocks])


def _values(samples, powers):
    # 0^0 = 1 per component, like the estimators
    ks = samples.astype(float)
    return np.prod(np.where((ks == 0) & (np.asarray(powers) == 0), 1.0, ks ** np.asarray(powers)), axis=1)


powers_for = {m: st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=m, max_size=m)
              for m in (1, 2, 3)}


@PROPS
@given(sample_blocks())
def test_rows_and_block_hist_match_raw_samples(blocks):
    dist = _law(blocks)
    every = np.concatenate(blocks)
    assert dist.rows.dtype == np.int64 and dist.block_hist.dtype == np.int64
    assert list(map(tuple, dist.rows.tolist())) == sorted(set(map(tuple, every.tolist())))
    assert dist.block_hist.shape == (len(blocks), len(dist.rows))
    assert dist.block_hist.sum(axis=1).tolist() == [len(b) for b in blocks]
    assert dist.total == every.shape[0]
    for b, block in enumerate(blocks):
        tally = Counter(map(tuple, block.tolist()))
        assert dist.block_hist[b].tolist() == [tally[tuple(r)] for r in dist.rows.tolist()]


@PROPS
@given(sample_blocks() | sample_blocks(ms=(1,)).map(lambda bs: [b * 1000 for b in bs]))
def test_block_tables_equal_the_one_pass_merge(blocks):
    # spread-out values take the sorting path of the m = 1 table
    dist = _law(blocks)
    want = merge_blocks(np.concatenate(blocks), [len(b) for b in blocks])
    assert dist.rows.tobytes() == want.rows.tobytes()
    assert dist.block_hist.tobytes() == want.block_hist.tobytes()


@PROPS
@given(sample_blocks(), st.sampled_from([1, 2**40]))
def test_count_table_indexes_its_rows(blocks, scale):
    # 2^40 spreads every column past 4n values: each is ranked by np.unique before the key is
    rows = np.concatenate(blocks) * scale - 2**61
    distinct, numbers, index = _count_table(rows)
    assert list(map(tuple, distinct.tolist())) == sorted(set(map(tuple, rows.tolist())))
    assert distinct[index].tobytes() == rows.tobytes()
    assert numbers.tolist() == np.bincount(index, minlength=len(distinct)).tolist()


@pytest.mark.parametrize("c, xi_class, box, n, kw", [
    (0.0, "irrational", [(0.0, 1.0)], 100_000, {}),
    (0.0, "integer", [(0.0, 1.0)], 100_000, {}),
    (0.0, "rational", [(0.0, 1.0), (0.5, 2.0)], 30_000, {"p": (1, 1), "q": 3}),
])
def test_sampler_tables_equal_the_one_pass_merge(monkeypatch, c, xi_class, box, n, kw):
    # the per-block counts the sampler reduces, merged again in one pass; the merge calls
    # _count_table last, on the blocks' distinct rows
    blocks = []
    monkeypatch.setattr(stats, "_count_table", lambda rows: blocks.append(rows) or _count_table(rows))
    dist = ld.sample_count_distribution(c, xi_class, box, n, np.random.default_rng(3), **kw)
    assert len(blocks) == limit.MOM_BLOCKS + 1
    blocks = blocks[:-1]
    want = merge_blocks(np.concatenate(blocks), [len(b) for b in blocks])
    assert dist.rows.tobytes() == want.rows.tobytes()
    assert dist.block_hist.tobytes() == want.block_hist.tobytes()


@PROPS
@given(sample_blocks(), st.data())
def test_moments_match_raw_samples(blocks, data):
    dist = _law(blocks)
    powers = data.draw(powers_for[dist.m])
    vals = _values(np.concatenate(blocks), powers)
    n = vals.size
    mean, second = vals.mean(), np.mean(vals**2)
    res = dist.moment(powers)
    assert res.n == n
    assert res.estimate == pytest.approx(mean, rel=1e-12, abs=1e-12)
    # compare variances: the square root amplifies roundoff near zero
    assert res.se**2 * n == pytest.approx(max(second - mean**2, 0.0), abs=1e-12 * max(1.0, second))

    means = np.array([_values(b, powers).mean() for b in blocks])
    med = np.median(means)
    mad = np.median(np.abs(means - med))
    mom = dist.moment_mom(powers)
    assert mom.estimate == pytest.approx(med, rel=1e-12, abs=1e-12)
    assert mom.n == n
    scale = max(1.0, float(np.abs(means).max()))
    assert mom.se == pytest.approx(1.4826 * mad / math.sqrt(len(blocks)), abs=1e-12 * scale)


@PROPS
@given(sample_blocks(ms=(1,)), st.integers(1, 4), st.integers(1, 6))
def test_survival_and_tail_exponent_match_raw_samples(blocks, k_min, min_tail):
    dist = _law(blocks)
    every = np.concatenate(blocks)[:, 0]
    ks = np.arange(-1, every.max() + 3)
    assert dist.survival(ks).tolist() == [np.mean(every >= k) for k in ks]

    grid = np.arange(k_min, every.max() + 1)
    surv = np.array([np.mean(every >= k) for k in grid])
    usable = surv * every.size >= min_tail
    if grid.size == 0 or usable.sum() < 3:
        with pytest.raises(ld.InsufficientDataError):
            ld.tail_exponent(dist, k_min, min_tail)
        return
    want = np.polyfit(np.log(grid[usable].astype(float)), np.log(surv[usable]), 1)[0]
    assert ld.tail_exponent(dist, k_min, min_tail) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_constructor_rejects_bad_arrays():
    with pytest.raises(ld.InvalidInputError):
        ld.CountDistribution(np.array([[1], [0]]), np.array([[1, 1]]))  # not sorted
    with pytest.raises(ld.InvalidInputError):
        ld.CountDistribution(np.array([[0, 1], [0, 1]]), np.array([[1, 1]]))  # repeated row
    with pytest.raises(ld.InvalidInputError):
        ld.CountDistribution(np.array([[0], [1]]), np.array([[1, 1, 1]]))  # shape mismatch
    with pytest.raises(ld.InvalidInputError):
        ld.CountDistribution(np.array([[0], [1]]), np.array([[0, 0]]))  # empty
    with pytest.raises(ld.InvalidInputError):
        ld.CountDistribution(np.array([[0.0], [1.0]]), np.array([[1, 1]]))  # float rows


def test_float_weights_are_a_law():
    law = ld.CountDistribution(np.array([[0], [2]]), np.array([[0.25, 0.0], [0.5, 0.25]]))
    assert law.block_hist.dtype == float and law.total == 1.0
    assert law.probabilities().tolist() == [0.75, 0.25]
    assert law.survival([0, 1, 2, 3]).tolist() == [1.0, 0.25, 0.25, 0.0]
    assert law.moment([2.0]).estimate == 1.0
    for bad in ([[-0.5, 1.0]], [[np.nan, 1.0]], [[np.inf, 1.0]], [[0.0, 0.0]]):
        with pytest.raises(ld.InvalidInputError, match="nonnegative"):
            ld.CountDistribution(np.array([[0], [2]]), np.array(bad))


# densities on the circle that integrate to 1 on any uniform grid of 2 or more points; the last is
# 0 at alpha = 0, so a count vector seen only there has weight 0
DENSITIES = [None, lambda a: 1.0 + 0.5 * np.cos(2 * np.pi * a), lambda a: 1.0 - np.cos(2 * np.pi * a)]
EXPONENTS = [0, 1, 2, -1, -0.5, 2.5, 0.5 + 1j, -1.5j, 2 - 0.25j]


@st.composite
def grid_moments(draw):
    """1-3 windows, a measure, a MomentSpec with an optional cap, and ``shifted``."""
    m = draw(st.integers(1, 3))
    ends = st.sampled_from([-3.0, -1.0, -0.25, 0.0, 0.5, 1.0, 2.0, 4.0])
    box = [tuple(sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))) for _ in range(m)]
    points, density = draw(st.sampled_from([2, 7, 64, 501])), draw(st.sampled_from(DENSITIES))
    lam = ld.MeasureSpec.uniform(points) if density is None else ld.MeasureSpec(density, points)
    s = draw(st.lists(st.sampled_from(EXPONENTS), min_size=m, max_size=m))
    return box, lam, ld.MomentSpec(tuple(s), draw(st.none() | st.integers(0, 4))), draw(st.booleans())


def _check_law_and_moment(dirs, box, lam, spec, shifted):
    law = ld.window_count_law(dirs, box, lam)
    counts = ld.window_counts(dirs, np.array(box), lam.grid())
    rows, index = np.unique(counts.T, axis=0, return_inverse=True)
    assert law.rows.dtype == np.int64 and law.rows.tobytes() == rows.tobytes()
    assert law.block_hist.shape == (1, len(rows))
    # the density's values summed per vector, then divided by the number of points: a uniform
    # measure's weights are then each vector's points over all points, rounded once
    weights = np.bincount(index.ravel(), lam.values(), len(rows)) / lam.quadrature_points
    assert law.block_hist[0].tobytes() == weights.tobytes()
    assert np.allclose(weights, np.bincount(index.ravel(), lam.weights(), len(rows)), rtol=1e-12, atol=0.0)
    got = ld.mixed_moment(dirs, box, spec, lam, shifted=shifted)
    want = grid_moment(dirs, box, spec, lam, shifted)
    # relative to the sum of |term|, which the real parts of the exponents bound (|k^s| = k^Re s),
    # as complex exponents may cancel the terms
    scale = grid_moment(dirs, box, ld.MomentSpec(tuple(z.real for z in spec.exponents), spec.cap), lam, shifted)
    assert abs(got - want) <= 1e-12 * scale.real
    return law


@PROPS
@given(st.integers(1, 60), st.sampled_from([None, 16]), st.integers(0, 2**32 - 1), grid_moments())
def test_grid_law_and_moment_match_the_grid_points(n, levels, seed, case):
    # uniform directions, or values on 16 levels, so that directions repeat; small windows leave
    # many counts at 0
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.0, 1.0, n) if levels is None else rng.integers(0, levels, n) / levels
    _check_law_and_moment(ld.DirectionSet(np.sort(alphas), 10.0, ld.Annulus(0.0)), *case)


@PROPS
@given(st.sampled_from([ld.Mat2.identity(), ld.Mat2(1.0, 0.0, 3.0, 1.0), ld.Mat2(2.0, 0.5, 1.0, 0.75)]),
       st.sampled_from([(0.3, 0.7), (0.5, 0.5), (1 / 3, 1 / 4), (0.0, 0.0)]),
       st.sampled_from([ld.Annulus(0.0), ld.Annulus(0.4), ld.Square()]), st.sampled_from([3.0, 12.0, 40.0]),
       grid_moments())
def test_set_and_stream_give_the_same_grid_law(basis, shift, shape, T, case):
    lat = ld.AffineLatticeSpec(basis, shift)
    dirs, stream = ld.direction_set(lat, shape, T), ld.direction_stream(lat, shape, T)
    law = _check_law_and_moment(dirs, *case)
    box, lam, spec, shifted = case
    got = ld.window_count_law(stream, box, lam)
    assert got.rows.tobytes() == law.rows.tobytes() and got.block_hist.tobytes() == law.block_hist.tobytes()
    want = ld.mixed_moment(dirs, box, spec, lam, shifted=shifted)
    assert np.array([ld.mixed_moment(stream, box, spec, lam, shifted=shifted)]).tobytes() == np.array([want]).tobytes()
