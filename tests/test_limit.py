import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import latdir as ld
from latdir.lattice import DEFAULT_MAX_POINTS
from latdir.limit import RCUT, V_FLOOR, _coset_shift, _gauss_sums, _haar_batch

from oracles import brute_cone_count, brute_disc_count


# ---------------------------------------------------------------- sampler


def test_haar_marginals():
    u, v, phi = _haar_batch(np.random.default_rng(42), 200_000)
    n = len(v)
    p = 3.0 / (2.0 * math.pi)
    assert abs(np.mean(v >= 2.0) - p) <= 3 * math.sqrt(p * (1 - p) / n)
    assert np.all(v >= math.sqrt(3) / 2)
    assert np.all(np.abs(u) <= 0.5)
    assert np.all(u * u + v * v >= 1.0)
    assert abs(np.mean(u)) <= 3 * np.std(u) / math.sqrt(n)
    assert 0.0 <= phi.min() and phi.max() < 2 * math.pi


def test_haar_v_cdf_against_sample():
    u, v, phi = _haar_batch(np.random.default_rng(7), 100_000)
    vs = np.sort(v)
    F = ld.haar_v_cdf(vs)
    n = len(vs)
    ks = max(
        float(np.max(np.abs(np.arange(1, n + 1) / n - F))),
        float(np.max(np.abs(np.arange(n) / n - F))),
    )
    assert ks <= 0.01


def test_haar_sample_single():
    u, v, _ = _haar_batch(np.random.default_rng(0), 1)
    assert abs(u[0]) <= 0.5 and u[0] ** 2 + v[0] ** 2 >= 1.0


# ---------------------------------------------------------------- counting


def test_count_in_region_identity_sample():
    assert ld.cone_counts(ld.iwasawa_matrix(0.0, 1.0, 0.0), np.zeros(2), ld.ConeRegion(0.0, (0.0, 1.0)))[0] == 0


def test_count_in_region_low_sample():
    # outside the fundamental domain, allowed as a direct input
    assert ld.cone_counts(ld.iwasawa_matrix(0.0, 0.25, 0.0), np.zeros(2), ld.ConeRegion(0.0, (0.0, 1.0)))[0] == 1


def test_count_in_region_rational_mode():
    # (Z^2 + p/q) gamma A is counted as (Z^2 + (p gamma mod q) / q) A
    rng = np.random.default_rng(19)
    reps = ld.coset_reps(3)
    reg = ld.ConeRegion(0.0, (-0.5, 1.5))
    for _ in range(25):
        A = ld.iwasawa_matrix(rng.uniform(-1, 1), rng.uniform(0.3, 3.0), rng.uniform(0, 2 * np.pi))
        coset = reps[rng.integers(len(reps))]
        got = ld.cone_counts(A, _coset_shift((1, 2), 3, coset), reg)[0]
        want = int(ld.cone_counts(coset.astype(float) @ A[0], np.array([1 / 3, 2 / 3]), reg)[0])
        assert got == want


def test_count_window_shrinks_to_zero():
    A = ld.iwasawa_matrix(0.17, 1.3, 0.9)
    prev = None
    for eps in (1.0, 0.3, 0.1, 0.01, 1e-4):
        k = ld.cone_counts(A, np.array([0.21, 0.47]), ld.ConeRegion(0.0, (0.25, 0.25 + eps)))[0]
        if prev is not None:
            assert k <= prev
        prev = k
    assert prev == 0


def test_cone_counts_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(120):
        u0 = rng.uniform(-2, 2)
        v0 = rng.uniform(0.05, 8.0)
        ph = rng.uniform(0, 2 * np.pi)
        A = ld.iwasawa_matrix(u0, v0, ph)[0]
        shift = rng.uniform(-1, 1, 2)
        c = float(rng.choice([0.0, 0.3, 0.7]))
        a = rng.uniform(-3, 2)
        reg = ld.ConeRegion(c, (a, a + rng.uniform(0.1, 3)))
        got = int(ld.cone_counts(A[None], shift, reg)[0])
        assert got == brute_cone_count(A, shift, reg, 60)


def test_cone_counts_brute_force_high_cusp():
    rng = np.random.default_rng(123)
    reg = ld.ConeRegion(0.0, (0.0, 1.0))
    for _ in range(40):
        v0 = float(rng.uniform(50, 5000))
        A = ld.iwasawa_matrix(rng.uniform(-0.5, 0.5), v0, rng.uniform(0, 2 * np.pi))[0]
        shift = rng.uniform(0, 1, 2)
        got = int(ld.cone_counts(A[None], shift, reg)[0])
        M2 = int(3 * math.sqrt(v0)) + 8
        m1g, m2g = np.meshgrid(np.arange(-4, 5), np.arange(-M2, M2 + 1), indexing="ij")
        p = np.stack([m1g.ravel() + shift[0], m2g.ravel() + shift[1]], 1)
        assert got == int(np.sum(reg.contains(p @ A)))


def test_cone_counts_zero_coefficient_point_on_the_edge():
    # a22 = 3 a21: the slope-3 edge of the window (0.5, 1.5) is the level line p1 = 0, and
    # p = (-1e-230, 1) rounds onto it, to y = (0.5, 1.5), which the float predicate keeps
    A = np.array([[1.0, 1.0], [0.5, 1.5]])
    xi = np.array([-1e-230, 0.0])
    region = ld.ConeRegion(0.0, (0.5, 1.5))
    assert int(ld.cone_counts(A[None], xi, region)[0]) == brute_cone_count(A, xi, region, 10) == 1


def test_disc_count_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(60):
        A = ld.iwasawa_matrix(rng.uniform(-2, 2), rng.uniform(0.05, 9.0), rng.uniform(0, 2 * np.pi))[0]
        shift = rng.uniform(-1, 1, 2)
        r = float(rng.uniform(0.3, 6.0))
        assert int(ld.disc_count(A[None], shift, r)[0]) == brute_disc_count(A, shift, r, 70)


def test_region_area_and_membership():
    for c in (0.0, 0.3, 0.7):
        reg = ld.ConeRegion(c, (-0.7, 1.9))
        assert reg.area == pytest.approx(2.6)
        # MC area of the membership indicator over a covering box
        rng = np.random.default_rng(5)
        n = 400_000
        om = 1 - c * c
        ylo = 2 * min(-0.7 * c, -0.7) / om
        yhi = 2 * max(1.9 * c, 1.9) / om
        pts = np.column_stack([rng.uniform(0, 1, n), rng.uniform(ylo, yhi, n)])
        frac = np.mean(reg.contains(pts))
        box_area = 1.0 * (yhi - ylo)
        se = box_area * math.sqrt(frac * (1 - frac) / n)
        assert abs(frac * box_area - reg.area) <= 4 * se


def test_region_shear_translation_exact():
    # shearing the sample in u translates the window: integer-exact identity
    rng = np.random.default_rng(31)
    for c in (0.0, 0.3, 0.7):
        base = ld.ConeRegion(c, (-0.4, 0.9))
        for _ in range(40):
            u0 = rng.uniform(-3, 3)
            v0 = rng.uniform(0.2, 4.0)
            xi = rng.uniform(0, 1, 2)
            r = float(rng.uniform(-1.5, 1.5))
            k1 = ld.cone_counts(ld.iwasawa_matrix(u0, v0, 0.0), xi, base.shifted(r))[0]
            u_new = u0 - 2.0 * r * v0 / (1.0 - c * c)
            k2 = ld.cone_counts(ld.iwasawa_matrix(u_new, v0, 0.0), xi, base)[0]
            assert k1 == k2


# ---------------------------------------------------------------- cosets


def test_coset_reps_orders():
    for q, order in ((2, 6), (3, 24), (4, 48), (5, 120)):
        reps = ld.coset_reps(q)
        assert len(reps) == order
        seen = set()
        for g in reps:
            det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
            assert det == 1
            key = tuple((g % q).flatten())
            assert key not in seen
            seen.add(key)


def test_coset_reps_unsupported():
    with pytest.raises(ld.UnsupportedError):
        ld.coset_reps(6)
    with pytest.raises(ld.UnsupportedError):
        ld.coset_reps(1)


# ---------------------------------------------------------------- distribution estimates


def test_first_moment_all_classes():
    box = [(0.0, 1.0)]
    for xi_class, kw in (
        ("irrational", {}),
        ("integer", {}),
        ("rational", {"p": (1, 0), "q": 2}),
    ):
        rng = np.random.default_rng(10)
        dist = ld.sample_count_distribution(0.0, xi_class, box, 60_000, rng, **kw)
        res = dist.moment([1.0])
        assert abs(res.estimate - 1.0) <= 4 * res.se, xi_class


def test_second_moment_irrational():
    rng = np.random.default_rng(11)
    dist = ld.sample_count_distribution(0.0, "irrational", [(0.0, 1.0)], 200_000, rng)
    res = dist.moment_mom([2.0])
    assert abs(res.estimate - 2.0) <= 0.2


def test_mixed_second_moment_two_windows():
    rng = np.random.default_rng(12)
    box = [(0.0, 1.0), (0.5, 2.0)]
    dist = ld.sample_count_distribution(0.0, "irrational", box, 200_000, rng)
    res = dist.moment_mom([1.0, 1.0])
    assert abs(res.estimate - 2.0) <= 0.2


def test_translation_invariance_statistical():
    box = [(0.0, 1.0)]
    for r in (0.3, 1.7):
        d0 = ld.sample_count_distribution(0.0, "irrational", box, 50_000, np.random.default_rng(77))
        d1 = ld.sample_count_distribution(
            0.0, "irrational", [(0.0 + r, 1.0 + r)], 50_000, np.random.default_rng(77)
        )
        m0, m1 = d0.moment([1.0]), d1.moment([1.0])
        assert abs(m0.estimate - m1.estimate) <= 3 * math.hypot(m0.se, m1.se)


def test_annulus_ratio_region():
    # region area stays |I| for c > 0 and the first moment still matches
    rng = np.random.default_rng(13)
    dist = ld.sample_count_distribution(0.5, "irrational", [(0.0, 1.0)], 60_000, rng)
    res = dist.moment([1.0])
    assert abs(res.estimate - 1.0) <= 4 * res.se


def test_count_distribution_bookkeeping():
    rng = np.random.default_rng(14)
    dist = ld.sample_count_distribution(0.0, "irrational", [(0.0, 1.0)], 5_000, rng)
    assert dist.total == 5_000
    assert dist.counts.sum() == 5_000
    assert dist.block_hist.shape == (32, len(dist.rows))
    assert dist.block_hist.sum(axis=1).tolist() == [157] * 8 + [156] * 24
    probs = dist.probabilities()
    assert probs.sum() == pytest.approx(1.0)


def test_count_distribution_rejects_negative_counts():
    # a count is never negative: such a row is an input error, not a moment past the float range
    with pytest.raises(ld.InvalidInputError, match="nonnegative"):
        ld.CountDistribution([[-2], [1]], [[1, 1]])


def test_count_distribution_reproducible():
    d1 = ld.sample_count_distribution(0.0, "irrational", [(0.0, 1.0)], 20_000, np.random.default_rng(5))
    d2 = ld.sample_count_distribution(0.0, "irrational", [(0.0, 1.0)], 20_000, np.random.default_rng(5))
    assert np.array_equal(d1.rows, d2.rows)
    assert np.array_equal(d1.block_hist, d2.block_hist)


# sha256 of rows and block_hist as little-endian int64, recorded while the cone kernel still walked
# 4096 samples at a time: its passes of whole samples must give the same bytes
SAMPLER_DIGESTS = [
    ((0.0, "irrational", [(0.0, 1.0)], 20_000, 11, {}, 32), "f53c49945e90b01e0a04d68ee43257c6"),
    ((0.3, "integer", [(0.0, 1.0), (0.5, 2.0)], 20_000, 12, {}, 32), "c3b07abc9038717ba7a3e9c44ad60643"),
    ((0.0, "rational", [(0.0, 1.0), (0.5, 2.0)], 20_000, 13, {"p": (1, 1), "q": 3}, 32),
     "f1ad73b314a598d3677d65a216cdc47e"),
    # one block of about 150k strips: three passes of the cone kernel
    ((0.0, "irrational", [(-1.0, 2.0)], 60_000, 14, {}, 1), "20878dabe12f4bceee9dae3100bc4ac3"),
    # the tails configuration: every sample has an apex strip (p1 = 0, xi2 = 0)
    ((0.0, "integer", [(0.0, 1.0)], 20_000, 15, {}, 32), "dc292c9d5683216ca47db8bf75b19685"),
]


@pytest.mark.parametrize("case, digest", SAMPLER_DIGESTS)
def test_count_distribution_digests(case, digest):
    c, xi_class, box, n, seed, kw, blocks = case
    dist = ld.sample_count_distribution(c, xi_class, box, n, np.random.default_rng(seed), blocks=blocks, **kw)
    data = dist.rows.astype("<i8").tobytes() + dist.block_hist.astype("<i8").tobytes()
    assert hashlib.sha256(data).hexdigest()[:32] == digest


@pytest.mark.parametrize("args, kw, error", [
    ((0.0, "gaussian", [(0.0, 1.0)], 100), {}, ld.InvalidInputError),
    ((0.0, "rational", [(0.0, 1.0)], 100), {"q": 3}, ld.InvalidInputError),
    ((0.0, "rational", [(0.0, 1.0)], 100), {"p": (1, 1)}, ld.InvalidInputError),
    ((0.0, "rational", [(0.0, 1.0)], 100), {"p": (1, 1), "q": 7}, ld.UnsupportedError),
    ((0.0, "irrational", [(0.0, 1.0)], 10**12), {}, ld.CapacityError),
])
def test_sampler_input_errors_come_before_any_draw(args, kw, error):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(error):
        ld.sample_count_distribution(*args, rng, **kw)
    assert rng.bit_generator.state == state and rng.bit_generator.seed_seq.n_children_spawned == 0


def test_count_distribution_size_budget():
    # 1e12 samples would need 8 TB of counts: refused before anything is drawn
    tracemalloc.start()
    try:
        with pytest.raises(ld.CapacityError):
            ld.sample_count_distribution(0.0, "irrational", [(0.0, 1.0)], 10**12, np.random.default_rng(0))
        with pytest.raises(ld.CapacityError):
            ld.sample_count_distribution(0.0, "irrational", [(0.0, 1.0), (0.5, 2.0)], 10**8 + 1,
                                         np.random.default_rng(0))
        assert tracemalloc.get_traced_memory()[1] < 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_powers_are_invalid(bad):
    dist = ld.sample_count_distribution(0.0, "irrational", [(0.0, 1.0)], 1000, np.random.default_rng(5))
    with pytest.raises(ld.InvalidInputError):
        ld.exact_limit_moment([bad], [(0.0, 1.0)])
    for moment in (dist.moment, dist.moment_mom):
        with pytest.raises(ld.InvalidInputError):
            moment([bad])


def test_exact_limit_moment():
    assert ld.exact_limit_moment([1.0], [(0.0, 1.5)]) == 1.5
    assert ld.exact_limit_moment([2], [(-1.0, 1.0)]) == 2.0 + 4.0
    # E[N1 N2] = |I1 & I2| + |I1| |I2|, overlapping and disjoint windows
    assert ld.exact_limit_moment([1.0, 1.0], [(0.0, 1.0), (0.5, 2.0)]) == 0.5 + 1.5
    assert ld.exact_limit_moment([1.0, 1.0], [(0.0, 1.0), (2.0, 3.0)]) == 1.0
    assert ld.exact_limit_moment([3.0], [(0.0, 1.0)]) is None
    assert ld.exact_limit_moment([2.0, 1.0], [(0.0, 1.0), (0.5, 2.0)]) is None
    with pytest.raises(ld.InvalidInputError):
        ld.exact_limit_moment([1.0], [(0.0, 1.0), (0.5, 2.0)])


# ---------------------------------------------------------------- tail exponent


def synthetic_dist(survival):
    """Distribution whose integer survival counts follow the given function."""
    kmax = 1
    while survival(kmax + 1) > 0:
        kmax += 1
    ks = np.arange(1, kmax + 1)
    counts = np.array([survival(k) - survival(k + 1) for k in ks], dtype=np.int64)
    return ld.CountDistribution(ks[counts > 0, None], counts[None, counts > 0])


def test_tail_exponent_power_law():
    dist = synthetic_dist(lambda k: int(1e12 * k**-3.0) if k <= 400 else 0)
    slope = ld.tail_exponent(dist, 5)
    assert slope == pytest.approx(-3.0, abs=0.05)


def test_tail_exponent_geometric_is_steep():
    dist = synthetic_dist(lambda k: int(2.0 ** (40 - k)) if k <= 35 else 0)
    assert ld.tail_exponent(dist, 5) < -5.0


def test_tail_exponent_insufficient_data():
    dist = ld.CountDistribution(np.array([[0], [1]]), np.array([[999, 1]]))
    with pytest.raises(ld.InsufficientDataError):
        ld.tail_exponent(dist, 5)


# ---------------------------------------------------------------- Siegel averages


def test_siegel_classic_small():
    res = ld.siegel_average("classic", 20_000, np.random.default_rng(3))
    assert res.exact == pytest.approx(math.pi)
    assert res.within(4.0)


def test_siegel_affine_pair_small():
    res = ld.siegel_average("affine_pair", 20_000, np.random.default_rng(4))
    assert res.exact == pytest.approx(math.pi**2)
    assert res.within(4.0)


@pytest.mark.parametrize("which, seed, estimate, se", [
    ("classic", 7, 3.164582446509205, 0.02436816730652084),
    ("affine_pair", 9, 9.828238331211297, 0.16026045745260858),
])
def test_siegel_average_pinned(which, seed, estimate, se):
    # recorded while each variant drew its own blocks: the shared Haar-block source keeps every draw
    res = ld.siegel_average(which, 100_000, np.random.default_rng(seed))
    assert (res.estimate, res.se) == (estimate, se)


@pytest.mark.parametrize("which, n", [("pairs", 100), ("classic", 1), ("classic", 10**12)])
def test_siegel_input_errors_come_before_any_draw(which, n):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises((ld.InvalidInputError, ld.CapacityError)):
        ld.siegel_average(which, n, rng)
    assert rng.bit_generator.state == state and rng.bit_generator.seed_seq.n_children_spawned == 0


def _gather_gauss_sums(u, v, phi, shift):
    """Reference: exp(-|x|^2) summed over a box of x = (m + shift) A, A gathered whole."""
    A = ld.iwasawa_matrix(u, v, phi)
    s = np.empty(u.size)
    s2 = np.empty(u.size)
    for i in range(u.size):
        M1 = int(RCUT / math.sqrt(v[i])) + 1  # |p1| <= RCUT / sqrt(v)
        M2 = int(RCUT * math.sqrt(v[i]) + abs(u[i]) * M1) + 2  # |p2 + u p1| <= RCUT sqrt(v)
        m1, m2 = np.meshgrid(np.arange(-M1, M1 + 1), np.arange(-M2, M2 + 1))
        p = np.stack([m1.ravel() + shift[i, 0], m2.ravel() + shift[i, 1]], 1)
        y = p @ A[i]
        norm2 = y[:, 0] ** 2 + y[:, 1] ** 2
        w = np.exp(-norm2[norm2 <= RCUT * RCUT])
        s[i], s2[i] = w.sum(), (w * w).sum()
    return s, s2


def test_gauss_sums_match_gather():
    # per strip times per point (Iwasawa form) against whole-matrix gathers; the
    # summation order differs, and terms below 1e-16 are dropped at |x| = RCUT
    rng = np.random.default_rng(21)
    u, v, phi = _haar_batch(rng, 40)
    u = np.concatenate([u, [0.5, -0.5, 0.1, -0.3, 0.0]])
    v = np.concatenate([v, [V_FLOOR, 1.0, 40.0, 1e3, 5e4]])
    phi = np.concatenate([phi, rng.uniform(0.0, 2 * math.pi, 5)])
    for shift in (np.zeros((u.size, 2)), rng.uniform(0.0, 1.0, (u.size, 2)),
                  np.broadcast_to([1 / 3, 0.5], (u.size, 2))):
        s, s2 = _gauss_sums(u, v, shift, True)
        ref, ref2 = _gather_gauss_sums(u, v, phi, shift)
        assert s == pytest.approx(ref, rel=1e-12, abs=1e-15)
        assert s2 == pytest.approx(ref2, rel=1e-12, abs=1e-15)
        plain, none = _gauss_sums(u, v, shift, False)
        assert none is None and np.array_equal(plain, s)


def test_gauss_sums_without_strips():
    # at v = 1e6 a shift of 1/2 leaves no m1-strip with exp(-v p1^2) >= 1e-16: the sums are float zeros
    u, v, shift = np.zeros(2), np.array([1e6, 1e6]), np.array([[0.5, 0.3], [0.5, 0.0]])
    for squares in (False, True):
        for sums in _gauss_sums(u, v, shift, squares):
            if sums is not None:
                assert sums.dtype == np.float64 and not sums.any()


def test_siegel_sample_budget():
    # n is checked against the budget before any stream or array: 3e8 samples would be a 2.4 GB array
    tracemalloc.start()
    try:
        for n in (DEFAULT_MAX_POINTS + 1, 3 * 10**8, 10**12):
            with pytest.raises(ld.CapacityError):
                ld.siegel_average("classic", n, np.random.default_rng(0))
        assert tracemalloc.get_traced_memory()[1] < 1e6
    finally:
        tracemalloc.stop()


def test_siegel_empty_support():
    # a test weight vanishing on every lattice point gives (0, 0)
    A = ld.iwasawa_matrix(0.0, 1.0, 0.0)
    assert int(ld.disc_count(A, np.array([0.4, 0.4]), 1e-6)[0]) == 0


# ---------------------------------------------------------------- bounds


def test_crude_bound_small_scale():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.3, 0.7))
    rng = np.random.default_rng(17)
    assert ld.crude_bound_holds(lat, rng.uniform(0, 1, 25), 120.0, (-1.0, 1.0), 0.5).all()
    # padded window dominates a tiny window trivially
    assert ld.crude_bound_holds(lat, rng.uniform(0, 1, 5), 120.0, (0.0, 0.001), 1.0).all()


def test_crude_bound_scale_gate():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.3, 0.7))
    with pytest.raises(ld.InvalidInputError):
        ld.crude_bound_holds(lat, 0.1, 5.0, (-1.0, 1.0), 0.5)
    assert ld.crude_bound_min_T((-1.0, 1.0), 0.5) > 5.0


def test_cusp_bound_random():
    rng = np.random.default_rng(23)
    for _ in range(120):
        assert ld.cusp_bound_holds(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 100.0), rng.uniform(0, 2 * np.pi),
                                   rng.uniform(0, 1, 2), float(rng.choice([1.0, 5.0])))


def test_cusp_bound_zero_factor_forces_zero():
    A = ld.iwasawa_matrix(0.3, 1.0, 0.7)
    assert int(ld.disc_count(A, np.array([0.5, 0.2]), 0.4)[0]) == 0
    assert ld.cusp_bound_holds(0.3, 1.0, 0.7, (0.5, 0.2), 0.4)
    assert ld.cusp_bound_holds(0.3, 1.0, 0.7, (0.5, 0.2), 0.0)


@pytest.mark.parametrize("call, name", [
    (lambda A: ld.disc_count(A, np.zeros(2), math.nan), "radius"),
    (lambda A: ld.disc_count(A, (math.nan, 0.0), 1.0), "shift"),
    (lambda A: ld.cone_counts(A, (math.nan, 0.0), ld.ConeRegion(0.0, (0.0, 1.0))), "shift"),
    (lambda A: ld.cone_counts(np.full_like(A, math.nan), (0.3, 0.4), ld.ConeRegion(0.0, (0.0, 1.0))), "matrix"),
], ids=["disc-radius", "disc-shift", "cone-shift", "cone-matrix"])
def test_nan_input_of_the_batch_counters_is_invalid(call, name):
    # a NaN radius, shift or matrix is refused by name before any strip is solved, not
    # reported as an integer range past int64
    with pytest.raises(ld.InvalidInputError, match=name):
        call(ld.iwasawa_matrix(0.1, 1.2, 0.3))


def test_cusp_bound_requires_high_point():
    for v in (0.5, -1.0, float("nan")):
        with pytest.raises(ld.InvalidInputError, match="v >= 1"):
            ld.cusp_bound_holds(0.0, v, 0.0, (0.0, 0.0), 1.0)


def test_cusp_bound_validation():
    # a shift outside [0, 1)^2 or not finite, and a negative or NaN radius
    for xi in ((1.2, 0.0), (0.0, -0.1), (float("nan"), 0.0), (0.0, float("inf"))):
        with pytest.raises(ld.InvalidInputError, match=r"\[0, 1\)"):
            ld.cusp_bound_holds(0.0, 1.0, 0.0, xi, 1.0)
    for r in (-1.0, float("nan")):
        with pytest.raises(ld.InvalidInputError, match="radius"):
            ld.cusp_bound_holds(0.0, 1.0, 0.0, (0.0, 0.0), r)


@pytest.mark.parametrize("xi_class", ["integer", "irrational"])
@pytest.mark.parametrize("kw", [{"p": (1, 1), "q": 3}, {"p": (1, 1)}, {"q": 3}])
def test_p_and_q_are_refused_outside_the_rational_class(xi_class, kw):
    # p and q fix the rational class's shift: another class would ignore them, so it refuses them
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ld.InvalidInputError, match="rational class"):
        ld.sample_count_distribution(0.0, xi_class, [(0.0, 1.0)], 100, rng, **kw)
    assert rng.bit_generator.state == state and rng.bit_generator.seed_seq.n_children_spawned == 0
