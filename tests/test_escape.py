import math
import tracemalloc

import numpy as np
import pytest

import latdir as ld
from latdir.diophantine import CBRT2, CBRT4

from oracles import brute_cusp_sum, random_unimodular

I2 = ld.Mat2.identity()


def test_hand_value_two_cosets():
    # tau = 4i, R = 2: only the rows (0, +-1) survive, each contributing
    # v^beta * sum_m exp(-(2(m +- 1/2))^2); the m = 0, -1 terms give 16/e
    # and the next terms add 16/e^9
    spec = ld.CuspSpec(beta=1.0, R=2.0, f_width=1.0)
    val = ld.cusp_window_sum(4j, (0.5, 0.0), I2, spec)
    exact = 8.0 * sum(math.exp(-(2.0 * (m + 0.5)) ** 2) for m in range(-5, 5))
    assert val == pytest.approx(exact, rel=1e-12)
    assert val == pytest.approx(16.0 / math.e, abs=2.5e-3)


def test_empty_indicator_gives_zero():
    spec = ld.CuspSpec(beta=1.0, R=4.0)
    assert ld.cusp_window_sum(1j, (0.3, 0.2), I2, spec) == 0.0


def test_integer_shift_positive():
    spec = ld.CuspSpec(beta=0.5, R=2.0)
    assert ld.cusp_window_sum(3j, (0.0, 0.0), I2, spec) > 0.0


def test_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.2, 5))
        xi = rng.uniform(-1, 1, 2)
        spec = ld.CuspSpec(
            beta=float(rng.uniform(0, 2)),
            R=float(rng.uniform(1, 4)),
            f_width=float(rng.uniform(0.5, 2)),
        )
        val = ld.cusp_window_sum(tau, xi, I2, spec)
        ref = brute_cusp_sum(tau, xi, I2, spec, cmax=40)
        assert val == pytest.approx(ref, abs=1e-12 * max(1.0, ref))


def test_group_invariance():
    rng = np.random.default_rng(3)
    spec = ld.CuspSpec(beta=0.8, R=1.5)
    xi = np.array([CBRT4, CBRT2]) % 1.0
    for tau in (complex(0.3, 2.0), complex(-0.4, 0.005)):
        base = ld.cusp_window_sum(tau, xi, I2, spec)
        assert base > 0
        for _ in range(20):
            g = random_unimodular(rng)
            nvec = rng.integers(-3, 4, 2)
            ginv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
            val = ld.cusp_window_sum(
                tau, (xi + nvec) @ ginv, ld.Mat2.from_array(g.astype(float)) @ I2, spec
            )
            assert val == pytest.approx(base, abs=1e-10 * max(1.0, base))


def test_invalid_inputs():
    with pytest.raises(ld.InvalidInputError):
        ld.cusp_window_sum(complex(0.0, -1.0), (0, 0), I2, ld.CuspSpec(1.0, 2.0))
    with pytest.raises(ld.InvalidInputError):
        ld.CuspSpec(beta=-0.5, R=2.0)
    with pytest.raises(ld.InvalidInputError):
        ld.CuspSpec(beta=0.5, R=0.5)


def test_height_below_the_floor_is_a_capacity_error():
    # v' = 1e-300 is far below 2^-52 (1 + |u'|): the reducing matrix would need entries near 1e300
    with pytest.raises(ld.CapacityError):
        ld.cusp_window_sum(complex(0.0, 1e-300), (0.3, 0.7), I2, ld.CuspSpec(1.0, 2.0))
    with pytest.raises(ld.CapacityError):
        ld.horocycle_escape_integral(I2, (0.3, 0.7), 1.0, 2.0, 1e-300, (-1, 1), n_quad=8)
    # just above the floor the sum is evaluated
    assert ld.cusp_window_sum(complex(0.25, 2.0**-51), (0.3, 0.7), I2, ld.CuspSpec(1.0, 2.0)) >= 0.0


def test_node_budget_is_checked_before_allocating():
    # 1e12 nodes would be 8 TB per node array: refused before np.arange
    tracemalloc.start()
    try:
        for n_quad in (ld.lattice.DEFAULT_MAX_POINTS + 1, 10**12):
            with pytest.raises(ld.CapacityError):
                ld.horocycle_escape_integral(I2, (0.3, 0.7), 1.0, 2.0, 1e-3, (-1, 1), n_quad=n_quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_image_beyond_the_float_range_is_a_capacity_error():
    # c tau + d = 1e-200 * 1e-200 i underflows to 0, where Python's complex division raised
    # ZeroDivisionError; at 1e-150 the image 1e450 i overflows to inf
    spec = ld.CuspSpec(1.0, 2.0)
    with pytest.raises(ld.CapacityError):
        ld.cusp_window_sum(complex(0.0, 1e-200), (0.3, 0.7), ld.Mat2(0.0, -1e200, 1e-200, 0.0), spec)
    with pytest.raises(ld.CapacityError):
        ld.horocycle_escape_integral(ld.Mat2(0.0, -1e150, 1e-150, 0.0), (0.3, 0.7), 1.0, 2.0, 1e-150, (-1, 1),
                                     n_quad=1)


@pytest.mark.parametrize("tau, xi, M", [
    (complex(0.0, math.nan), (0.3, 0.7), I2),
    (complex(math.inf, 1.0), (0.3, 0.7), I2),
    (complex(0.0, 1.0), (math.nan, 0.7), I2),
    (complex(0.0, 1.0), (0.3, math.inf), I2),
    (complex(0.0, 1.0), (0.3, 0.7), ld.Mat2(1.0, 0.0, 0.0, 0.0)),
    (complex(0.0, 1.0), (0.3, 0.7), ld.Mat2(2.0, 0.0, 0.0, 1.0)),
    (complex(0.0, 1.0), (0.3, 0.7), ld.Mat2(math.nan, 0.0, 0.0, 1.0)),
    (complex(0.0, 1.0), (0.3, 0.7), ld.Mat2(math.inf, 0.0, 0.0, 1.0)),
])
def test_non_finite_or_non_unimodular_inputs_are_invalid(tau, xi, M):
    spec = ld.CuspSpec(1.0, 2.0)
    with pytest.raises(ld.InvalidInputError):
        ld.cusp_window_sum(tau, xi, M, spec)
    if math.isfinite(tau.imag) and math.isfinite(tau.real):
        with pytest.raises(ld.InvalidInputError):
            ld.horocycle_escape_integral(M, xi, 1.0, 2.0, 1e-3, (-1, 1), n_quad=8)


@pytest.mark.parametrize("v, support", [(math.nan, (-1, 1)), (math.inf, (-1, 1)), (1e-3, (-math.inf, 1)),
                                        (1e-3, (0, math.nan))])
def test_non_finite_height_or_support_is_invalid(v, support):
    with pytest.raises(ld.InvalidInputError):
        ld.horocycle_escape_integral(I2, (0.3, 0.7), 1.0, 2.0, v, support, n_quad=8)


@pytest.mark.parametrize("beta, R, f_width", [(math.nan, 2.0, 1.0), (math.inf, 2.0, 1.0), (1.0, math.nan, 1.0),
                                              (1.0, 2.0, math.nan), (1.0, 2.0, math.inf)])
def test_non_finite_spec_is_invalid(beta, R, f_width):
    with pytest.raises(ld.InvalidInputError):
        ld.CuspSpec(beta, R, f_width)


def test_bump_window():
    u = np.array([-1.0, -0.999, 0.0, 0.999, 1.0, 2.0])
    h = ld.bump_window(u, (-1.0, 1.0))
    assert h[0] == 0.0 and h[4] == 0.0 and h[5] == 0.0
    assert h[2] == pytest.approx(1.0)
    assert 0 < h[1] < 1e-100 or h[1] == 0.0  # essentially zero at the edge
    # h vanishing everywhere forces a vanishing integrand
    assert np.all(ld.bump_window(np.linspace(2, 3, 50), (-1.0, 1.0)) == 0.0)


def test_escape_integral_monotone_in_R():
    xi = (CBRT4, CBRT2)
    vals = [
        ld.horocycle_escape_integral(I2, xi, 0.9, R, 1e-4, (-1, 1), n_quad=512)
        for R in (2.0, 8.0, 32.0)
    ]
    assert vals[0] >= vals[1] >= vals[2] >= 0.0
    assert vals[0] > vals[2]


def test_escape_integral_rational_mass_growth():
    vals = [
        ld.horocycle_escape_integral(I2, (0.5, 0.5), 2.5, 2.0, v, (-1, 1), n_quad=2048)
        for v in (1e-2, 1e-3, 1e-4)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_leading_coset_term_decays():
    # rows (+-1, 0): their horocycle average vanishes with v for
    # non-integer shift coordinates
    xi = (CBRT4, CBRT2)
    vals = [
        ld.horocycle_escape_integral(I2, xi, 0.9, 2.0, v, (-1, 1), n_quad=512, cosets="inverted")
        for v in (1e-2, 1e-3, 1e-4)
    ]
    assert vals[0] > vals[1] > vals[2]
    # the identity rows (0, +-1) never reach the cutoff below R
    ids = [
        ld.horocycle_escape_integral(I2, xi, 0.9, 2.0, v, (-1, 1), n_quad=128, cosets="identity")
        for v in (1e-2, 1e-3)
    ]
    assert ids == [0.0, 0.0]


def test_escape_integral_matches_direct_quadrature():
    xi = (0.3, 0.8)
    spec = ld.CuspSpec(beta=0.7, R=2.0)
    lo, hi, n = -0.5, 1.5, 64
    du = (hi - lo) / n
    us = lo + (np.arange(n) + 0.5) * du
    ref = sum(
        ld.bump_window(np.array([u]), (lo, hi))[0] * ld.cusp_window_sum(complex(u, 1e-3), xi, I2, spec)
        for u in us
    ) * du
    val = ld.horocycle_escape_integral(I2, xi, 0.7, 2.0, 1e-3, (lo, hi), n_quad=n)
    assert val == pytest.approx(ref, rel=1e-12)


def test_exact_tie_keeps_inverted_cosets():
    # at tau' = 1.1e-16 + i and R = 1 the rows (+-1, 0) have v_g = 1.0 >= R exactly
    spec = ld.CuspSpec(beta=1.0, R=1.0)
    tau = complex(1.1e-16, 1.0)
    val = ld.cusp_window_sum(tau, (0.0, 0.0), I2, spec)
    ref = brute_cusp_sum(tau, (0.0, 0.0), I2, spec, cmax=3)
    assert ref == pytest.approx(2.0 * 3.5452744096533046, rel=1e-12)
    assert val == pytest.approx(ref, rel=1e-12)


def _random_case(rng):
    g = random_unimodular(rng)
    M = ld.Mat2.from_array(g.astype(float)) @ ld.Mat2(1.0, float(rng.uniform(-1, 1)), 0.0, 1.0)
    xi = tuple(rng.uniform(0, 1, 2))
    spec = ld.CuspSpec(float(rng.uniform(0, 2)), float(rng.uniform(1, 4)), float(rng.uniform(0.5, 2)))
    return M, xi, spec, str(rng.choice(ld.escape.COSET_FILTERS))


def test_escape_integral_equals_sequential_node_sum():
    rng = np.random.default_rng(11)
    for _ in range(30):
        M, xi, spec, cosets = _random_case(rng)
        v = float(10.0 ** rng.uniform(-3, 0))
        lo = float(rng.uniform(-1, 0.5))
        hi = lo + float(rng.uniform(0.1, 1.5))
        n = int(rng.integers(1, 80))
        du = (hi - lo) / n
        us = lo + (np.arange(n) + 0.5) * du
        total = 0.0
        for u, h in zip(us, ld.bump_window(us, (lo, hi))):
            if h != 0.0:
                total += h * ld.cusp_window_sum(complex(u, v), xi, M, spec, cosets)
        val = ld.horocycle_escape_integral(
            M, xi, spec.beta, spec.R, v, (lo, hi), n_quad=n, f_width=spec.f_width, cosets=cosets
        )
        assert val == total * du


def test_batched_sums_match_brute_force():
    rng = np.random.default_rng(12)
    for _ in range(12):
        M, xi, spec, _ = _random_case(rng)
        taus = [complex(u, v) for u, v in zip(rng.uniform(-1, 1, 20), 10.0 ** rng.uniform(-1.5, 0.5, 20))]
        vals = ld.escape._cusp_sums(taus, xi, M, spec, "all")
        for tau, val in zip(taus, vals):
            taup = (M.a * tau + M.b) / (M.c * tau + M.d)
            reach = math.sqrt(taup.imag / spec.R)  # bounds |c| and |c u' + d| on the ellipse
            cmax = int(reach / taup.imag * (1.0 + abs(taup.real)) + reach) + 2
            ref = brute_cusp_sum(tau, xi, M, spec, cmax)
            assert val == pytest.approx(ref, abs=1e-12 * max(1.0, ref))
