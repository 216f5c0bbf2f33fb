import math
import tracemalloc
import warnings

import numpy as np
import pytest

import latdir as ld

from oracles import brute_pair_integral, histogram_spacings, pair_overlap_sum, two_histogram_pair_correlation


def shift_dirs(dirs, delta):
    a = np.sort(np.mod(dirs.alphas + delta, 1.0))
    a[a >= 1.0] = 0.0
    return ld.DirectionSet(np.sort(a), dirs.T, dirs.shape)


# ---------------------------------------------------------------- counting


def test_counting_stat_regular(regular8):
    assert ld.window_counts(regular8, (0.0, 1.0), 0.0) == 1
    assert ld.window_counts(regular8, (-1.0, 1.0), 0.0) == 2
    assert ld.window_counts(regular8, (0.0, 8.0), 0.123) == 8
    assert ld.window_counts(regular8, (0.0, 9.5), 0.99) == 8


def test_counting_stat_wrap(regular8):
    # windows shorter than the 1/8 spacing, positioned to straddle 1
    assert ld.window_counts(regular8, (-0.25, 0.25), 0.93) == 0
    assert ld.window_counts(regular8, (-0.25, 0.25), 0.999) == 1
    assert ld.window_counts(regular8, (-2.0, 2.0), 0.97) == 4


def test_counting_translation_invariance():
    rng = np.random.default_rng(3)
    alphas = np.sort(rng.uniform(0, 1, 400))
    dirs = ld.DirectionSet(alphas, 10.0, ld.Annulus(0.0))
    for _ in range(50):
        a = rng.uniform(-2, 2)
        b = a + rng.uniform(0.1, 3)
        alpha = rng.uniform(0, 1)
        delta = rng.uniform(0, 1)
        lhs = ld.window_counts(dirs, (a, b), alpha)
        rhs = ld.window_counts(shift_dirs(dirs, delta), (a, b), (alpha + delta) % 1.0)
        assert lhs == rhs


def test_counting_window_additivity():
    rng = np.random.default_rng(4)
    alphas = np.sort(rng.uniform(0, 1, 300))
    dirs = ld.DirectionSet(alphas, 10.0, ld.Annulus(0.0))
    for _ in range(100):
        a = rng.uniform(-3, 2)
        b = a + rng.uniform(0.05, 2)
        c = b + rng.uniform(0.05, 2)
        alpha = rng.uniform(0, 1)
        whole = ld.window_counts(dirs, (a, c), alpha)
        parts = ld.window_counts(dirs, (a, b), alpha) + ld.window_counts(dirs, (b, c), alpha)
        assert whole == parts


def test_counting_empty_set_rejected():
    empty = ld.DirectionSet(np.array([]), 1.0, ld.Annulus(0.0))
    with pytest.raises(ld.InvalidInputError):
        ld.window_counts(empty, (0.0, 1.0), 0.0)
    with pytest.raises(ld.InvalidInputError):
        ld.pair_correlation_integral(empty, (0.0, 1.0), (0.0, 1.0))


# ---------------------------------------------------------------- spacings


def test_spacing_histogram_regular(regular8):
    edges = np.arange(0.0, 6.05, 0.1)
    h1 = ld.spacing_histogram(regular8, 1, edges)
    assert h1.total_mass() == pytest.approx(1.0)
    nz = np.nonzero(h1.masses)[0]
    assert len(nz) == 1 and edges[nz[0]] <= 1.0 < edges[nz[0] + 1]
    h3 = ld.spacing_histogram(regular8, 3, edges)
    nz = np.nonzero(h3.masses)[0]
    assert len(nz) == 1 and edges[nz[0]] <= 3.0 < edges[nz[0] + 1]


def test_spacing_k_bounds(regular8):
    with pytest.raises(ld.InvalidInputError):
        ld.spacing_histogram(regular8, 8, np.arange(0, 6, 0.5))
    with pytest.raises(ld.InvalidInputError):
        ld.spacing_histogram(regular8, 0, np.arange(0, 6, 0.5))


def test_spacing_histogram_matches_np_histogram(dirs_500):
    # a regular 64-gon puts every k-spacing exactly on k: on interior edges, on the closed
    # last edge, and past it (k = N - 1)
    regular = ld.DirectionSet(np.arange(64) / 64.0, 10.0, ld.Annulus(0.0))
    clustered = ld.direction_set(ld.AffineLatticeSpec(ld.Mat2(1.0, 0.0, 1000.0, 1.0), (0.5, 1.0 / 3.0)),
                                 ld.Square(), 40.0)
    edge_sets = (np.arange(0.0, 7.0, 1.0), np.arange(0.0, 6.05, 0.1), np.array([0.5, 1.0, 63.0]),
                 np.array([2.0, 2.5, 3.0]), np.array([-1.0, 0.0, 0.25]))
    for dirs in (regular, clustered, dirs_500):
        for k in (1, 2, 3, 6, 15, dirs.N - 1):
            for edges in edge_sets:
                assert ld.spacing_histogram(dirs, k, edges).masses.tobytes() == \
                    histogram_spacings(dirs, k, edges).tobytes()
    assert np.count_nonzero(ld.spacing_histogram(regular, 6, np.arange(0.0, 7.0, 1.0)).masses[-1]) == 1
    assert np.count_nonzero(ld.spacing_histogram(regular, 63, np.array([0.5, 1.0, 63.0])).masses[-1]) == 1


def test_spacing_heavy_tail(dirs_1000):
    # scaled nearest-neighbor gaps: clearly non-exponential tail
    A = dirs_1000.alphas
    N = dirs_1000.N
    g = (np.concatenate([A[1:], A[:1] + 1.0]) - A) * N
    assert np.mean(g > 6.0) > 1.5 * np.exp(-6.0)
    # sup-distance from the unit-rate exponential law
    qs = np.linspace(0.05, 6.0, 200)
    emp = np.array([np.mean(g <= q) for q in qs])
    assert np.max(np.abs(emp - (1 - np.exp(-qs)))) > 0.05


# ---------------------------------------------------------------- pair correlation


def test_pair_correlation_regular(regular8):
    h = ld.pair_correlation(regular8, np.array([-0.5, 0.5]))
    assert h.masses[0] == 0.0
    h = ld.pair_correlation(regular8, np.array([0.5, 1.5]))
    assert h.masses[0] == pytest.approx(1.0)
    # two-sided: the mirrored bin holds the reversed pairs
    h = ld.pair_correlation(regular8, np.array([-1.5, -0.5, 0.5, 1.5]))
    assert np.allclose(h.masses, [1.0, 0.0, 1.0])
    hf = ld.pair_correlation(regular8, np.array([0.5, 1.5]), fold=True)
    assert hf.masses[0] == pytest.approx(2.0)


def test_pair_correlation_multiplicity():
    # repeated angles create pairs at separation zero
    dirs = ld.DirectionSet(np.array([0.1, 0.1, 0.6]), 5.0, ld.Annulus(0.0))
    h = ld.pair_correlation(dirs, np.array([-0.25, 0.25]))
    assert h.masses[0] * 3 * 0.5 == pytest.approx(2.0)  # 2 ordered pairs at 0


def test_pair_correlation_counts_a_difference_rounding_onto_the_last_edge():
    # 3 * nextafter(1/3) rounds to 1.0, the closed last edge, though the difference lies past
    # fl(1/3), the reach over N: every pair through np.histogram counts it
    dirs = ld.DirectionSet(np.array([0.0, np.nextafter(1 / 3, np.inf), 0.5]), 10.0, ld.Annulus(0.0))
    A, N = dirs.alphas, dirs.N
    lifted = np.concatenate([A, A + 1.0])
    diffs = np.array([N * (lifted[l] - A[j]) for j in range(N) for l in range(j + 1, j + N)])
    signed, folded = np.array([-1.0, -0.5, 0.0, 0.5, 1.0]), np.array([0.0, 0.5, 1.0])
    want = (np.histogram(diffs, signed)[0] + np.histogram(-diffs, signed)[0]) / (N * 0.5)
    want_folded = 2.0 * np.histogram(diffs, folded)[0] / (N * 0.5)
    assert np.allclose(want, 2 / 3) and np.allclose(want_folded, 4 / 3)
    for density in (None, np.ones_like):  # binned whole, and compacted with the pairs' ends
        assert ld.pair_correlation(dirs, signed, density=density).masses.tolist() == want.tolist()
        assert ld.pair_correlation(dirs, folded, density=density, fold=True).masses.tolist() == want_folded.tolist()
    assert two_histogram_pair_correlation(dirs, signed).tolist() == want.tolist()
    assert two_histogram_pair_correlation(dirs, folded, fold=True).tolist() == want_folded.tolist()


def test_pair_correlation_window_too_wide(regular8):
    with pytest.raises(ld.InvalidInputError):
        ld.pair_correlation(regular8, np.array([-4.0, 4.0]))


def test_pair_correlation_one_sort_matches_two_histograms(cbrt_lat):
    # N > 65 536: the first passes span two sorted blocks; edges hit exact differences
    dirs = ld.direction_set(cbrt_lat, ld.Annulus(0.0), 160.0)
    assert dirs.N > 65_536
    regular = ld.DirectionSet(np.arange(64) / 64.0, 10.0, ld.Annulus(0.0))
    rho = lambda a: 1.0 + 0.5 * np.cos(2 * np.pi * a)  # noqa: E731
    for ds, edges in ((dirs, np.arange(-10.0, 10.25, 0.5)), (dirs, np.array([-3.0, -1.0, 0.0, 0.7, 4.0])),
                      (regular, np.arange(-6.0, 7.0, 1.0))):
        assert ld.pair_correlation(ds, edges).masses.tobytes() == \
            two_histogram_pair_correlation(ds, edges).tobytes()
        np.testing.assert_allclose(ld.pair_correlation(ds, edges, density=rho).masses,
                                   two_histogram_pair_correlation(ds, edges, density=rho), rtol=1e-12)
        folded = edges[edges >= 0.0]
        assert ld.pair_correlation(ds, folded, fold=True).masses.tobytes() == \
            two_histogram_pair_correlation(ds, folded, fold=True).tobytes()


def _survivors(dirs, edges, d):
    """Number of j whose d-th neighbour lies within the bins' reach."""
    A, N = dirs.alphas, dirs.N
    gaps = np.concatenate([A[d:], A[:d] + 1.0]) - A
    return int(np.sum(gaps <= max(abs(edges[0]), abs(edges[-1])) / N))


def _uniform_dirs(n, seed):
    return ld.DirectionSet(np.sort(np.random.default_rng(seed).uniform(0, 1, n)), 10.0, ld.Annulus(0.0))


@pytest.mark.parametrize("case", ["gather-from-pass-1", "gather-after-passes", "never-gather", "clustered"])
def test_pair_correlation_offset_passes_match_reference(case):
    # sets whose passes over all j keep fewer than a quarter of them from pass 1, after a few
    # passes, or never; the sweep switches to gathering per block, at 1 in stats._SPARSE kept
    if case == "gather-from-pass-1":
        dirs, edges = _uniform_dirs(4000, 31), np.array([-0.2, -0.05, 0.0, 0.1, 0.2])
        assert 4 * _survivors(dirs, edges, 1) < dirs.N
    elif case == "gather-after-passes":
        dirs, edges = _uniform_dirs(4000, 32), np.arange(-8.0, 8.25, 0.25)
        assert 4 * _survivors(dirs, edges, 5) >= dirs.N > 4 * _survivors(dirs, edges, 12)
    elif case == "never-gather":
        # a regular 64-gon: every j survives passes 1..6, and pass 7 keeps none
        dirs, edges = ld.DirectionSet(np.arange(64) / 64.0, 10.0, ld.Annulus(0.0)), np.arange(-6.0, 6.5, 0.5)
        assert _survivors(dirs, edges, 6) == dirs.N and _survivors(dirs, edges, 7) == 0
    else:
        # rational shift on a sheared basis: directions repeat, so many differences are exactly 0
        lat = ld.AffineLatticeSpec(ld.Mat2(1.0, 0.0, 1000.0, 1.0), (0.5, 1.0 / 3.0))
        dirs, edges = ld.direction_set(lat, ld.Square(), 40.0), np.arange(-5.0, 5.25, 0.25)
        assert np.any(np.diff(dirs.alphas) == 0.0)
    rho = lambda a: 1.0 + 0.5 * np.cos(2 * np.pi * a)  # noqa: E731
    assert ld.pair_correlation(dirs, edges).masses.tobytes() == \
        two_histogram_pair_correlation(dirs, edges).tobytes()
    np.testing.assert_allclose(ld.pair_correlation(dirs, edges, density=rho).masses,
                               two_histogram_pair_correlation(dirs, edges, density=rho), rtol=1e-12)
    folded = edges[edges >= 0.0]
    assert ld.pair_correlation(dirs, folded, fold=True).masses.tobytes() == \
        two_histogram_pair_correlation(dirs, folded, fold=True).tobytes()
    np.testing.assert_allclose(ld.pair_correlation(dirs, folded, density=rho, fold=True).masses,
                               two_histogram_pair_correlation(dirs, folded, density=rho, fold=True),
                               rtol=1e-12)


def test_pair_correlation_density_correction(cbrt_lat):
    # square-domain pair counts sit near the squared-density level; weighting
    # pairs by the inverse density brings them back to 1
    sq = ld.Square()
    dirs = ld.directions(ld.enumerate_points(cbrt_lat, sq, 300.0), 300.0, sq)
    edges = np.arange(-5.0, 5.25, 0.5)
    raw = ld.pair_correlation(dirs, edges)
    cor = ld.pair_correlation(dirs, edges, density=ld.rho_square)
    assert raw.masses.mean() == pytest.approx(np.pi / 3, rel=0.05)
    assert cor.masses.mean() == pytest.approx(1.0, rel=0.05)


@pytest.mark.parametrize("density", [
    lambda a: np.zeros_like(a),  # a divide-by-zero warning, then "too narrow for a finite density"
    lambda a: np.full_like(a, np.nan),  # the same wrong message
    lambda a: -np.ones_like(a),  # masses with no error
    lambda a: np.where(a < 0.5, 1.0, -1.0),  # negative on half the circle: masses with no error
], ids=["zero", "nan", "negative", "negative-on-half"])
def test_pair_correlation_refuses_densities_not_finite_and_positive(cbrt_lat, density):
    stream = ld.direction_stream(cbrt_lat, ld.Annulus(0.0), 30.0)
    with pytest.raises(ld.InvalidInputError, match="finite and positive at every direction"):
        ld.pair_correlation(stream, np.linspace(-2.0, 2.0, 9), density=density)


@pytest.mark.parametrize("density", [lambda a: 1.0, lambda a: np.ones(3), lambda a: np.ones_like(a) * (1 + 1j)],
                         ids=["scalar", "wrong-shape", "complex"])
def test_pair_correlation_broadcasts_the_density(cbrt_lat, density):
    # both raised IndexError, a traceback and no LatdirError; a constant scalar is a valid density
    edges = np.linspace(-2.0, 2.0, 9)
    stream = ld.direction_stream(cbrt_lat, ld.Annulus(0.0), 30.0)
    if np.ndim(density(np.zeros(2))) == 0:
        assert ld.pair_correlation(stream, edges, density=density).masses.tobytes() == \
            ld.pair_correlation(stream, edges, density=lambda a: np.ones_like(a)).masses.tobytes()
    else:
        with pytest.raises(ld.InvalidInputError, match="one real value per direction"):
            ld.pair_correlation(stream, edges, density=density)


# ---------------------------------------------------------------- moments


def test_mixed_moment_regular(regular8):
    val = ld.mixed_moment(regular8, [(0.0, 1.0)], ld.MomentSpec((1.0,)))
    assert val.real == pytest.approx(2.0, rel=1e-9)
    assert val.imag == 0.0


def test_mixed_moment_zero_exponent(regular8):
    val = ld.mixed_moment(regular8, [(0.0, 1.0)], ld.MomentSpec((0.0,)))
    assert val.real == pytest.approx(1.0, rel=1e-12)


def test_mixed_moment_complex_exponent(regular8):
    # counts are 1 a.e., so (1+1)^s = 2^s regardless of alpha
    s = 0.5 + 0.25j
    val = ld.mixed_moment(regular8, [(0.0, 1.0)], ld.MomentSpec((s,)))
    assert val == pytest.approx(2.0**s, rel=1e-9)


def test_zero_power_rule_at_both_layers(regular8):
    # 0^0 = 1 and 0^s = 0 for s != 0, in the finite layer and in the limit's count law: the window
    # (0, 1/2) holds one of the eight directions at 8 of 16 grid points and none at the other 8
    lam = ld.MeasureSpec.uniform(16)
    law = ld.CountDistribution(np.array([[0], [1]]), np.array([[8, 8]]))
    for s, want in ((-1.0, 0.5), (0.0, 1.0), (2.0, 0.5)):
        assert ld.mixed_moment(regular8, [(0.0, 0.5)], ld.MomentSpec((s,)), lam, shifted=False) == want
        assert law.moment([s]).estimate == law.moment_mom([s]).estimate == want


def test_moment_past_the_float_range_is_a_capacity_error(regular8):
    # 9^800 overflows; 3^400 is finite but its square, which the standard error sums, is not
    law = ld.CountDistribution(np.array([[0], [3]]), np.array([[1, 1]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ld.CapacityError, match="float range"):
            ld.mixed_moment(regular8, [(0.0, 8.0)], ld.MomentSpec((800.0,)))
        for powers in ([1e308], [400.0]):
            with pytest.raises(ld.CapacityError, match="float range"):
                law.moment(powers)
            with pytest.raises(ld.CapacityError, match="float range"):
                law.moment_mom(powers)
        assert law.moment([200.0]).estimate == pytest.approx(0.5 * 3.0**200)


def test_restricted_moment_monotone(dirs_small=None):
    rng = np.random.default_rng(8)
    dirs = ld.DirectionSet(np.sort(rng.uniform(0, 1, 500)), 12.0, ld.Annulus(0.0))
    lam = ld.MeasureSpec.uniform(2001)
    box = [(0.0, 2.0)]
    prev = 0.0
    full = ld.mixed_moment(dirs, box, ld.MomentSpec((2.0,)), lam).real
    for K in (0, 1, 2, 3, 5, 8, 20):
        val = ld.mixed_moment(dirs, box, ld.MomentSpec((2.0,), cap=K), lam).real
        assert val >= prev - 1e-12
        prev = val
    assert prev == pytest.approx(full, rel=1e-12)


def test_raw_moment_expectation_identity(dirs_1000):
    lam = ld.MeasureSpec.uniform()
    for iv in ((0.0, 1.0), (0.0, 2.0), (-1.0, 3.0)):
        val = ld.mixed_moment(dirs_1000, [iv], ld.MomentSpec((1.0,)), lam, shifted=False)
        assert abs(val.real - (iv[1] - iv[0])) <= 0.05


def test_mixed_moment_nonuniform_measure():
    # raw first moment against a smooth density, checked with the exact
    # arc-measure sum Sum_j (F(r_j) - F(l_j)) from the density's CDF
    rng = np.random.default_rng(21)
    alphas = np.sort(rng.uniform(0, 1, 40))
    dirs = ld.DirectionSet(alphas, 9.0, ld.Annulus(0.0))
    dens = lambda a: 1.0 + 0.5 * np.cos(2 * np.pi * np.asarray(a))
    cdf = lambda t: t + np.sin(2 * np.pi * t) / (4 * np.pi)
    lam = ld.MeasureSpec(dens, 20_001)
    a, b = -0.7, 1.3
    N = dirs.N
    exact = 0.0
    for aj in alphas:
        lo = (aj - b / N) % 1.0
        r = lo + (b - a) / N
        exact += cdf(r) - cdf(lo) if r <= 1.0 else 1.0 - cdf(lo) + cdf(r - 1.0)
    val = ld.mixed_moment(dirs, [(a, b)], ld.MomentSpec((1.0,)), lam, shifted=False)
    assert val.real == pytest.approx(exact, abs=0.01)
    assert val.imag == 0.0


def test_measure_spec_validation():
    with pytest.raises(ld.InvalidInputError):
        ld.MeasureSpec(lambda a: 2.0 * np.ones_like(a))
    lam = ld.MeasureSpec(lambda a: 2.0 * (np.asarray(a) < 0.5), 20_000)
    assert lam.weights().sum() == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("density, reason", [
    (lambda a: np.where(a < 0.5, np.nan, 1.0), "finite and nonnegative"),  # total nan: no distance to 1
    (lambda a: 1 + 1.5 * np.cos(2 * np.pi * a), "finite and nonnegative"),  # integrates to 1
    (lambda a: np.ones(3), "one real value per grid point"),
    (lambda a: np.ones_like(a) * (1 + 1j), "one real value per grid point"),  # its real part integrates to 1
], ids=["nan", "negative", "wrong-shape", "complex"])
def test_measure_spec_names_why_a_density_is_refused(density, reason):
    with pytest.raises(ld.InvalidInputError, match=reason):
        ld.MeasureSpec(density, 1001)


def test_measure_spec_broadcasts_a_constant_density():
    lam = ld.MeasureSpec(lambda a: 1.0, 1001)
    assert np.array_equal(lam.weights(), ld.MeasureSpec.uniform(1001).weights())


@pytest.mark.parametrize("s", [math.nan, math.inf, complex(1.0, math.nan), complex(-math.inf, 0.0)])
def test_moment_spec_rejects_non_finite_exponents(s):
    with pytest.raises(ld.InvalidInputError):
        ld.MomentSpec((1.0, s))


# ---------------------------------------------------------------- exact pair integral


def test_pair_integral_regular(regular8):
    assert ld.pair_correlation_integral(regular8, (0.0, 1.0), (0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)
    assert ld.pair_correlation_integral(regular8, (0.0, 2.0), (0.0, 1.0)) == pytest.approx(1.0, rel=1e-12)
    # a window with b - a >= N counts all 8 directions: (N - 1) times the nested window's length
    assert ld.pair_correlation_integral(regular8, (0.0, 8.0), (0.0, 1.0)) == pytest.approx(7.0, rel=1e-12)
    assert ld.pair_correlation_integral(regular8, (0.5, 2.0), (0.0, 9.5)) == pytest.approx(10.5, rel=1e-12)


def test_pair_integral_matches_brute_force():
    lat = ld.AffineLatticeSpec(ld.Mat2.identity(), (0.3, 0.7))
    shape = ld.Annulus(0.0)
    dirs = ld.directions(ld.enumerate_points(lat, shape, 6.0), 6.0, shape)
    for I1, I2 in (((0, 1), (0, 1)), ((-0.5, 1.2), (0.3, 2.0)), ((-2, -0.2), (-1, 1))):
        va = ld.pair_correlation_integral(dirs, I1, I2)
        vb = brute_pair_integral(dirs, I1, I2)
        assert va == pytest.approx(vb, abs=1e-12)


def test_pair_integral_matches_overlap_sum(cbrt_lat):
    shape = ld.Annulus(0.0)
    dirs = ld.directions(ld.enumerate_points(cbrt_lat, shape, 150.0), 150.0, shape)
    rng = np.random.default_rng(11)
    for _ in range(5):
        a1 = rng.uniform(-2, 1.5)
        a2 = rng.uniform(-2, 1.5)
        I1 = (a1, a1 + rng.uniform(0.1, 2.0))
        I2 = (a2, a2 + rng.uniform(0.1, 2.0))
        va = ld.pair_correlation_integral(dirs, I1, I2)
        vb = pair_overlap_sum(dirs, I1, I2)
        assert va == pytest.approx(vb, rel=1e-9)


# ---------------------------------------------------------------- bin edges


@pytest.mark.parametrize("edges", [[0.0, np.nan, 2.0], [np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]])
def test_non_finite_edges_rejected(edges):
    # np.diff(edges) <= 0 is False next to a NaN, so a NaN edge once gave masses [nan, nan]
    regular = ld.DirectionSet(np.arange(64) / 64.0, 10.0, ld.Annulus(0.0))
    with pytest.raises(ld.InvalidInputError, match="finite"):
        ld.pair_correlation(regular, edges)
    with pytest.raises(ld.InvalidInputError, match="finite"):
        ld.spacing_histogram(regular, 1, edges)
    with pytest.raises(ld.InvalidInputError, match="finite"):
        ld.Histogram(np.array(edges), np.zeros(len(edges) - 1))


# ---------------------------------------------------------------- blocked passes


def test_passes_need_no_n_long_temporaries(dirs_1000):
    # N = 3 141 603, so one N-long float array is 25 MB: the passes stay within blocks and
    # the survivors (whole-array passes peaked at 78, 29 and 149 MB on these runs)
    runs = (lambda: ld.pair_correlation(dirs_1000, np.arange(-10.0, 10.25, 0.5)),
            lambda: ld.spacing_histogram(dirs_1000, 15, np.arange(0.0, 6.05, 0.05)),
            lambda: ld.pair_correlation_integral(dirs_1000, (-0.65, 1.19), (-0.01, 1.74)))
    tracemalloc.start()
    try:
        for run in runs:
            tracemalloc.reset_peak()
            run()
            assert tracemalloc.get_traced_memory()[1] < 8e6
    finally:
        tracemalloc.stop()
