"""A cone count does not depend on the batch its sample is counted in.

The cone kernel walks a stack of samples in passes of whole samples, about
``strips.CHUNK`` m1-strips each; every sample's first strip is bounded
straight from the per-sample factors, the others from factors gathered to
them.  A stack whose strips straddle a pass boundary must count each sample
as it counts alone, and as the brute-force oracle does where its box is
small.  The stacks mix the kernel's special cases: flat samples (a21 = 0),
strips through the cone apex (p1 = 0, integer xi2), zero slope
coefficients (a22 = s a21), exact-third shifts of the rational class,
high-cusp samples and many-strip filler.
"""

import math

import numpy as np
import pytest

import latdir as ld
from latdir import limit, strips

from oracles import brute_cone_count

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

JIGGLE = math.sqrt(2) / 97


def _iwasawa(rng, n, vlo, vhi, phi=None):
    u = rng.uniform(-0.5, 0.5, n)
    v = np.exp(rng.uniform(math.log(vlo), math.log(vhi), n))
    phi = rng.uniform(0.0, 2 * math.pi, n) if phi is None else np.full(n, phi)
    return ld.iwasawa_matrix(u, v, phi)


def _stack(seed, c, intervals):
    """Matrices (n, 2, 2) and shifts (n, 2) of a mixed stack, in shuffled order."""
    rng = np.random.default_rng(seed)
    om = 1.0 - c**2
    slopes = [2.0 * e / om for iv in intervals for e in iv]  # the kernel's slopes, bit for bit
    haar = _iwasawa(rng, 40, 0.87, 10.0)
    # about (max s - min s) |a21| strips each, a21 = sin(phi) / sqrt(v): hundreds of them
    vhi = ((max(slopes) - min(slopes)) / 300.0) ** 2
    filler = _iwasawa(rng, 300, vhi / 10.0, vhi)
    cusp = _iwasawa(rng, 20, 1e3, 1e6)
    flat = _iwasawa(rng, 20, 0.5, 5.0, phi=0.0)
    a21 = rng.uniform(0.5, 2.0, 20) * rng.choice([-1.0, 1.0], 20)
    a11 = rng.uniform(-1.0, 1.0, 20)
    a22 = rng.choice(slopes, 20) * a21
    zero = np.stack([np.stack([a11, (a11 * a22 - 1.0) / a21], -1), np.stack([a21, a22], -1)], 1)
    A = np.concatenate([haar, filler, cusp, flat, zero])
    xi = rng.uniform(0.0, 1.0, (len(A), 2))
    # exact thirds, the shifts of the rational class at q = 3: many bounds land on integers
    third = rng.random(len(A)) < 0.25
    reps = np.array(limit.coset_reps(3))
    xi[third] = limit._coset_shift(rng.integers(1, 3, 2), 3, reps[rng.integers(0, len(reps), int(third.sum()))])
    apex = rng.random(len(A)) < 0.25
    xi[apex] = rng.integers(-1, 2, (int(apex.sum()), 2))
    near = rng.random(len(A)) < 0.1  # within roundoff of an integer, on either side
    xi[near, 0] = rng.integers(-1, 2, int(near.sum())) + rng.choice([-1e-200, 1e-200], int(near.sum()))
    order = rng.permutation(len(A))
    return A[order], xi[order]


def _box(reach, A):
    """Half-width M of an m-box holding every point with |y_i| <= reach."""
    return int(reach * np.abs(np.linalg.inv(A)).sum(axis=0).max()) + 2


@settings(derandomize=True, deadline=None, max_examples=6)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3]),
       st.lists(st.tuples(st.floats(-2.0, 1.0), st.floats(0.2, 2.0)), min_size=1, max_size=2))
def test_counts_do_not_depend_on_the_batch(seed, c, windows):
    intervals = [(a + JIGGLE, a + JIGGLE + w) for a, w in windows]
    A, xi = _stack(seed, c, intervals)
    passes = []
    run = limit._cone_pass

    def counted(*args):
        passes.append(args[0][0].size)
        return run(*args)

    limit._cone_pass = counted
    try:
        got = limit._cone_kernel(A.reshape(-1, 4).T, xi[:, 0], xi[:, 1], c, intervals)
    finally:
        limit._cone_pass = run
    assert len(passes) >= 2  # the stack's strips straddle a pass boundary
    for j, interval in enumerate(intervals):
        region = ld.ConeRegion(c, interval)
        assert np.array_equal(ld.cone_counts(A, xi, region), got[:, j])
        alone = [int(ld.cone_counts(A[i:i + 1], xi[i], region)[0]) for i in range(len(A))]
        assert alone == got[:, j].tolist()
        reach = 1.0 + 2.0 * max(map(abs, interval)) / (1.0 - c**2)
        for i in range(len(A)):
            M = _box(reach, A[i])
            if M <= 40:
                assert brute_cone_count(A[i], xi[i], region, M) == got[i, j]


def test_pass_cut_holds_whole_rows():
    # the cut of strips.runs: whole rows, about CHUNK values a run, empty runs skipped
    counts = np.array([0, 5, 0, 0, 3, 7, 0])
    assert list(strips.runs(counts, 6)) == [(0, 5), (5, 6)]  # the last run, row 6, has no values
    assert list(strips.runs(counts, 100)) == [(0, 7)]
    assert list(strips.runs(np.zeros(3, dtype=np.int64), 4)) == []
