"""The Haar blocks drawn in place, against the draws of ``Generator.uniform``.

The sampler draws every block of a call into one workspace: ``random`` into
reused rows, then -0.5 + r, sqrt(3) / 2 / (1 - r) and 2 pi r in place, and
the rational shift from a table of one shift per coset.
``Generator.uniform(low, high)`` rounds low + (high - low) r once, so both
formulations give the same bits.  Here every block of ``limit._haar_blocks``
is compared, bit for bit, with the one of ``oracles.uniform_haar_blocks``
before the next block overwrites it: u, v, phi and the shift, for all three
classes, over seeds, block sizes from 1 to ``SIEGEL_BATCH`` (in any order,
so a small block follows a large one in the same workspace) and q = 2..5
with several p.
"""

import numpy as np
import pytest

import latdir as ld
from latdir import limit

from oracles import uniform_haar_batch, uniform_haar_blocks

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# 1e6 / 32 = 31,250 and 3e5 / 32 = 9,375 are the bench's count-law blocks; 31,251 is one past
SIZES = [1, 2, 17, 9375, 31250, 31251, limit.SIEGEL_BATCH]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_blocks_match(seed, sizes, xi_class, p=None, q=None):
    got = limit._haar_blocks(np.random.default_rng(seed), sizes, xi_class, p, q)
    want = uniform_haar_blocks(np.random.default_rng(seed), sizes, xi_class, p, q)
    blocks = 0
    for (u, v, phi, xi), (u0, v0, phi0, shift0) in zip(got, want, strict=True):
        for name, a, b in (("u", u, u0), ("v", v, v0), ("phi", phi, phi0), ("shift", xi.T, shift0)):
            assert same_bits(np.ascontiguousarray(a), b), (name, blocks, sizes, xi_class, p, q)
        blocks += 1
    assert blocks == len(sizes)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("xi_class, p, q", [("integer", None, None), ("irrational", None, None),
                                            ("rational", (1, 1), 3)])
def test_each_block_size_draws_the_uniform_bits(size, xi_class, p, q):
    assert_blocks_match(2024 + size, [size], xi_class, p, q)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**63), sizes=st.lists(st.sampled_from(SIZES), min_size=1, max_size=3),
       xi_class=st.sampled_from(["integer", "irrational", "rational"]), q=st.integers(2, 5),
       p=st.tuples(st.integers(-7, 7), st.integers(-7, 7)))
def test_workspace_blocks_draw_the_uniform_bits(seed, sizes, xi_class, q, p):
    if xi_class == "rational":
        assert_blocks_match(seed, sizes, xi_class, p, q)
    else:
        assert_blocks_match(seed, sizes, xi_class)


@pytest.mark.parametrize("n", [1, 2, 17, 9375])
def test_haar_batch_draws_the_uniform_bits(n):
    got = limit._haar_batch(np.random.default_rng(n), n)
    want = uniform_haar_batch(np.random.default_rng(n), n)
    assert all(same_bits(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 3), (-3, 5), (7, -2)])
def test_coset_table_is_the_shift_of_each_coset(p, q):
    reps = ld.coset_reps(q)
    table = limit._coset_table(p, q)
    assert table.shape == (2, len(reps)) and table.flags.c_contiguous
    for i, gamma in enumerate(reps):
        assert same_bits(table[:, i].copy(), limit._coset_shift(p, q, gamma))
