"""Property tests of the array-backed count law (latdir.limit.CountDistribution).

Random per-block count vectors (m = 1, 2, 3; blocks of uneven sizes) are
reduced to per-block tables and merged into a count law, as the sampler
does, and every statistic is recomputed by brute force from the raw
per-sample rows: the distinct rows and block histogram, plain and
median-of-means moments, survival and the tail exponent.  The tables'
merge must also equal the one-pass merge of all rows in ``oracles``.
"""

import math
from collections import Counter

import numpy as np
import pytest

import latdir as ld
from latdir import limit
from latdir.limit import _count_table, _merge_tables

from oracles import merge_blocks

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
    monkeypatch.setattr(limit, "_count_table", lambda rows: blocks.append(rows) or _count_table(rows))
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
