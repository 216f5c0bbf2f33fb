"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Stochastic criteria use fixed seeds (defined in conftest fixtures or
locally), so every run is a deterministic regression check.
"""

import math
import time

import numpy as np
import pytest

import latdir as ld
from latdir.diophantine import CBRT2, CBRT4

from oracles import pair_overlap_sum, random_unimodular


def _report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def timed_2000(cbrt_lat):
    shape = ld.Annulus(0.0)
    t0 = time.time()
    dirs = ld.direction_set(cbrt_lat, shape, 2000.0)
    return dirs, time.time() - t0


def test_criterion_01_asymptotic_count(timed_2000):
    dirs, seconds = timed_2000
    rel = abs(dirs.N / (math.pi * 2000.0**2) - 1.0)
    ok = rel <= 0.005 and seconds < 10.0
    _report(1, "asymptotic count", ok, f"N={dirs.N}, rel dev {rel:.2e}, {seconds:.1f}s")


def test_criterion_02_pair_correlation_poisson(cbrt_lat):
    shape = ld.Annulus(0.0)
    t0 = time.time()
    dirs = ld.direction_set(cbrt_lat, shape, 1000.0)
    hist = ld.pair_correlation(dirs, np.arange(-10.0, 10.25, 0.5))
    seconds = time.time() - t0
    dev = np.abs(hist.masses - 1.0)
    ok = dev.max() <= 0.15 and dev.mean() <= 0.05 and seconds < 60.0
    _report(2, "pair correlation level 1", ok,
            f"max dev {dev.max():.3f}, mean dev {dev.mean():.3f}, {seconds:.1f}s")


def test_criterion_03_second_mixed_moment(timed_2000):
    dirs, _ = timed_2000
    val = ld.mixed_moment(
        dirs,
        [(0.0, 1.0), (0.5, 2.0)],
        ld.MomentSpec((1.0, 1.0)),
        ld.MeasureSpec.uniform(200_001),
        shifted=False,
    )
    rel = abs(val.real - 2.0) / 2.0
    _report(3, "second mixed moment", rel <= 0.07, f"value {val.real:.4f}, rel dev {rel:.3f}")


def test_criterion_04_limit_first_moment(irr_million):
    res = irr_million.moment([1.0])
    dev = abs(res.estimate - 1.0)
    ok = dev <= 3 * res.se
    _report(4, "limit first moment", ok, f"{res.estimate:.5f} +- {res.se:.5f}")


def test_criterion_05_limit_second_moment(irr_million):
    res = irr_million.moment_mom([2.0])
    rel = abs(res.estimate - 2.0) / 2.0
    _report(5, "limit second moment", rel <= 0.10, f"{res.estimate:.4f}, rel dev {rel:.3f}")


def test_criterion_06_tail_exponents(irr_million, int_million):
    s_irr = ld.tail_exponent(irr_million, 5)
    s_int = ld.tail_exponent(int_million, 5)
    ok = abs(s_irr + 3.0) <= 0.3 and abs(s_int + 2.0) <= 0.3
    _report(6, "tail exponents", ok, f"irrational {s_irr:.2f}, integer {s_int:.2f}")


def test_criterion_07_siegel_formulas():
    classic = ld.siegel_average("classic", 100_000, np.random.default_rng(7))
    pair = ld.siegel_average("affine_pair", 100_000, np.random.default_rng(9))
    ok = classic.within(3.0) and pair.within(3.0)
    _report(7, "Gaussian mean values", ok,
            f"classic {classic.estimate:.4f}+-{classic.se:.4f} vs {math.pi:.4f}; "
            f"pair {pair.estimate:.4f}+-{pair.se:.4f} vs {math.pi**2:.4f}")


def test_criterion_08_square_domain_constant(dirs_square_1000):
    hist = ld.pair_correlation(dirs_square_1000, np.arange(-5.0, 5.25, 0.5))
    avg = float(hist.masses.mean())
    rel = abs(avg - math.pi / 3.0) / (math.pi / 3.0)
    _report(8, "square-domain constant", rel <= 0.05,
            f"avg density {avg:.4f} vs pi/3 = {math.pi / 3:.4f}, rel dev {rel:.3f}")


def test_criterion_09_rational_divergence():
    from fractions import Fraction

    counts = ld.rational_divergence_probe(
        (Fraction(1, 2), Fraction(1, 2)), (1, 1), 0.5, [250.0, 500.0, 1000.0]
    )
    r1 = counts[1] / counts[0]
    r2 = counts[2] / counts[1]
    ok = abs(r1 - 2.0) <= 0.5 and abs(r2 - 2.0) <= 0.5
    _report(9, "rational divergence", ok, f"counts {counts}, ratios {r1:.2f}, {r2:.2f}")


def test_criterion_10_exact_pair_equivalence(dirs_500):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        a1 = rng.uniform(-2.0, 1.5)
        a2 = rng.uniform(-2.0, 1.5)
        I1 = (a1, a1 + rng.uniform(0.1, 2.0))
        I2 = (a2, a2 + rng.uniform(0.1, 2.0))
        va = ld.pair_correlation_integral(dirs_500, I1, I2)
        vb = pair_overlap_sum(dirs_500, I1, I2)
        worst = max(worst, abs(va - vb) / max(1e-12, abs(vb)))
    _report(10, "exact pair-count equivalence", worst <= 1e-9, f"worst rel dev {worst:.2e}")


def test_criterion_11_property_suites(cbrt_lat):
    rng = np.random.default_rng(17)
    crude_ok = bool(ld.crude_bound_holds(cbrt_lat, rng.uniform(0, 1, 100), 500.0, (-1.0, 1.0), 0.5).all())

    cusp_ok = all(
        ld.cusp_bound_holds(
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(1.0, 100.0)),
            float(rng.uniform(0, 2 * math.pi)),
            rng.uniform(0, 1, 2),
            float(rng.choice([1.0, 5.0])),
        )
        for _ in range(200)
    )

    spec = ld.CuspSpec(beta=0.8, R=1.5)
    xi = np.array([CBRT4, CBRT2]) % 1.0
    tau = complex(0.3, 2.0)
    base = ld.cusp_window_sum(tau, xi, ld.Mat2.identity(), spec)
    inv_dev = 0.0
    for _ in range(20):
        g = random_unimodular(rng)
        nvec = rng.integers(-3, 4, 2)
        ginv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
        val = ld.cusp_window_sum(
            tau, (xi + nvec) @ ginv, ld.Mat2.from_array(g.astype(float)), spec
        )
        inv_dev = max(inv_dev, abs(val - base))
    inv_ok = base > 0 and inv_dev <= 1e-10 * max(1.0, base)

    from latdir.limit import _haar_batch

    _, v, _ = _haar_batch(np.random.default_rng(42), 100_000)
    vs = np.sort(v)
    F = ld.haar_v_cdf(vs)
    n = len(vs)
    ks = max(
        float(np.max(np.abs(np.arange(1, n + 1) / n - F))),
        float(np.max(np.abs(np.arange(n) / n - F))),
    )
    ks_ok = ks <= 0.01

    ok = crude_ok and cusp_ok and inv_ok and ks_ok
    _report(11, "property suites", ok,
            f"cone bound {crude_ok}, cusp bound {cusp_ok}, "
            f"invariance dev {inv_dev:.1e}, sampler KS {ks:.4f}")


def _tv_distance(law1, law2, top=11):
    """Total variation distance of two scalar count laws, with the counts from ``top`` on lumped."""
    def head_and_tail(law):
        ks, p = law.rows[:, 0], law.probabilities()
        return np.append(np.bincount(ks[ks < top], p[ks < top], top), law.survival(top))

    return 0.5 * float(np.abs(head_and_tail(law1) - head_and_tail(law2)).sum())


def test_criterion_12_finite_scale_vs_limit(timed_2000, irr_million):
    dirs, _ = timed_2000
    tv = _tv_distance(ld.window_count_law(dirs, (0.0, 1.0), ld.MeasureSpec.uniform(20_001)), irr_million)
    _report(12, "finite scale vs limit law", tv <= 0.05, f"TV distance {tv:.4f}")
