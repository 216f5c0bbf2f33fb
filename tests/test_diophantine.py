import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import latdir as ld
from latdir import strips
from latdir.diophantine import CBRT2, CBRT4, GOLDEN, SQRT2


@pytest.mark.parametrize("x, power, value", [(CBRT2, 3, 2), (CBRT4, 3, 4), (SQRT2, 2, 2)])
def test_constants_are_the_nearest_doubles(x, power, value):
    # the root lies strictly within half an ulp of x, exactly
    half = Fraction(math.ulp(x)) / 2
    assert (Fraction(x) - half) ** power < value < (Fraction(x) + half) ** power


def test_golden_is_the_nearest_double():
    # g = (1 + sqrt(5)) / 2 solves (2 g - 1)^2 = 5
    half = Fraction(math.ulp(GOLDEN)) / 2
    assert (2 * (Fraction(GOLDEN) - half) - 1) ** 2 < 5 < (2 * (Fraction(GOLDEN) + half) - 1) ** 2


def test_the_cli_imports_no_mpmath():
    code = "import sys, latdir.cli; print('mpmath' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.stdout.strip() == "False"


def test_constants_precision():
    assert CBRT2**3 == pytest.approx(2.0, rel=1e-15)
    assert CBRT4**3 == pytest.approx(4.0, rel=1e-15)
    assert SQRT2**2 == pytest.approx(2.0, rel=1e-15)
    assert GOLDEN**2 == pytest.approx(GOLDEN + 1.0, rel=1e-15)


def test_scan_rational_relation_exact_zero():
    rep = ld.dioph_scan((Fraction(1, 2), Fraction(1, 2)), 2.0, 2)
    assert rep.min_value == 0.0
    r1, r2, m = rep.argmin
    assert r1 * Fraction(1, 2) + r2 * Fraction(1, 2) + m == 0
    # the height-2 relation is found exactly once the radius reaches it
    rep_thirds = ld.dioph_scan((Fraction(1, 3), Fraction(2, 3)), 2.0, 2)
    assert rep_thirds.min_value == 0.0
    rep_small = ld.dioph_scan((Fraction(1, 3), Fraction(2, 3)), 2.0, 1)
    assert rep_small.min_value > 0.0


def test_scan_cubic_vector_stable_floor():
    rep = ld.dioph_scan((CBRT4, CBRT2), 2.0, 200)
    assert rep.min_value == pytest.approx(0.2004905778, abs=1e-6)
    # floor does not collapse as the radius grows
    for radius in (25, 50, 100):
        assert ld.dioph_scan((CBRT4, CBRT2), 2.0, radius).min_value >= rep.min_value


def test_scan_below_critical_type_decays():
    mins = [ld.dioph_scan((CBRT4, CBRT2), 1.5, rad).min_value for rad in (25, 50, 100, 200)]
    assert all(a >= b for a, b in zip(mins, mins[1:]))
    assert mins[-1] < 0.6 * mins[0]


def test_scan_monotonicity_in_radius_and_kappa():
    xi = (CBRT4, CBRT2)
    prev = None
    for radius in (10, 20, 40, 80):
        cur = ld.dioph_scan(xi, 2.0, radius).min_value
        if prev is not None:
            assert cur <= prev
        prev = cur
    for radius in (10, 40):
        lo = ld.dioph_scan(xi, 1.5, radius).min_value
        hi = ld.dioph_scan(xi, 2.0, radius).min_value
        assert lo <= hi


def _full_grid_scan(xi, kappa, radius):
    """The whole square |r1|, |r2| <= radius, masked to the diamond, first minimum in row-major order."""
    exact = all(isinstance(x, Fraction) for x in xi)
    best = None
    r = np.arange(-radius, radius + 1)
    r1, r2 = (a.ravel() for a in np.meshgrid(r, r, indexing="ij"))
    h = np.abs(r1) + np.abs(r2)
    keep = (h > 0) & (h <= radius)
    r1, r2, h = r1[keep], r2[keep], h[keep]
    if exact:
        for a, b, w in zip(r1.tolist(), r2.tolist(), h.tolist()):
            t = a * xi[0] + b * xi[1]
            val = abs(float(t - round(t))) * float(w) ** kappa
            if best is None or val < best[0]:
                best = (val, (a, b, -int(round(t))))
        return best
    t = r1 * xi[0] + r2 * xi[1]
    m = -np.rint(t)
    val = np.abs(t + m) * h.astype(float) ** kappa
    i = int(np.argmin(val))
    return float(val[i]), (int(r1[i]), int(r2[i]), int(m[i]))


_SHIFTS = [
    (CBRT4, CBRT2), (0.5, 0.5), (1 / 3, 2 / 3), (0.25, 0.0), (GOLDEN, SQRT2), (0.0, 0.0),
    (Fraction(1, 2), Fraction(1, 2)), (Fraction(2, 7), Fraction(3, 5)), (Fraction(0), Fraction(1, 3)),
    # exact half-integer values of r . xi, which round to even, and integer parts
    (Fraction(-1, 2), Fraction(3, 2)), (Fraction(-5, 2), Fraction(7, 6)), (Fraction(3), Fraction(-1, 4)),
]
_KAPPAS = [0.0, 1.0, 1.5, 2.0, -1.0]


@pytest.mark.parametrize("xi", _SHIFTS)
@pytest.mark.parametrize("kappa", _KAPPAS)
def test_half_diamond_scan_matches_full_grid(xi, kappa):
    # rational shifts tie many r: the first minimum of the full scan must come back
    radii = (1, 2, 3, 8, 25) if isinstance(xi[0], Fraction) else (1, 2, 3, 8, 25, 120)
    for radius in radii:
        rep = ld.dioph_scan(xi, kappa, radius)
        assert (rep.min_value, rep.argmin) == _full_grid_scan(xi, kappa, radius)


@pytest.mark.parametrize("block", [1, 5, 64])
@pytest.mark.parametrize("xi", _SHIFTS)
@pytest.mark.parametrize("kappa", _KAPPAS)
def test_scan_blocks_keep_the_first_minimum(monkeypatch, block, xi, kappa):
    # blocks of one row up to a few rows: ties straddle block edges, the first one must win
    monkeypatch.setattr(strips, "CHUNK", block)
    test_half_diamond_scan_matches_full_grid(xi, kappa)


@pytest.mark.parametrize("xi", [(CBRT4, CBRT2), (Fraction(2, 7), Fraction(3, 5))])
def test_scan_memory_is_independent_of_radius_squared(xi):
    # radius 2000 is about 4M values; a full-length float64 array alone would take 32 MB
    tracemalloc.start()
    try:
        ld.dioph_scan(xi, 2.0, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_exact_scan_capacity():
    # radius * denominator must stay below 2^53 for the int64 numerators to round like Fraction
    with pytest.raises(ld.CapacityError):
        ld.dioph_scan((Fraction(1, 2**50), Fraction(1, 3)), 2.0, 10)
    xi = (Fraction(1, 2**40), Fraction(1, 7))
    rep = ld.dioph_scan(xi, 2.0, 5)
    assert (rep.min_value, rep.argmin) == _full_grid_scan(xi, 2.0, 5)


def test_scan_bad_inputs():
    with pytest.raises(ld.InvalidInputError):
        ld.dioph_scan((0.5, 0.5), 2.0, 0)
    with pytest.raises(ld.InvalidInputError):
        ld.dioph_scan((0.5,), 2.0, 5)
    # inputs that would scan NaN or infinite values
    for xi in [(math.nan, 0.5), (0.5, math.inf), (1e308, 0.5)]:
        with pytest.raises(ld.InvalidInputError):
            ld.dioph_scan(xi, 2.0, 5)
    for xi in [(0.5, 0.25), (Fraction(1, 2), Fraction(1, 4))]:
        with pytest.raises(ld.InvalidInputError):
            ld.dioph_scan(xi, 400.0, 10)
        assert ld.dioph_scan(xi, 300.0, 10).min_value == 0.0  # 10^300 is finite


def test_singular_vector_valid():
    xi = ld.singular_vector((1, 0), SQRT2, (Fraction(0), Fraction(1, 2)))
    assert xi == pytest.approx([SQRT2, 0.5])
    xi = ld.singular_vector((2, 1), GOLDEN, (Fraction(1, 3), Fraction(0)))
    assert xi == pytest.approx([2 * GOLDEN + 1 / 3, GOLDEN])


def test_singular_vector_integer_det_rejected():
    with pytest.raises(ld.InvalidConstructionError):
        ld.singular_vector((1, 0), SQRT2, (Fraction(0), Fraction(1)))
    with pytest.raises(ld.InvalidConstructionError):
        ld.singular_vector((1, 0), SQRT2, (0.0, 1.0 + 4e-10))
    with pytest.raises(ld.InvalidInputError):
        ld.singular_vector((0, 0), SQRT2, (Fraction(0), Fraction(1, 2)))


def test_divergence_probe_linear_growth():
    counts = ld.rational_divergence_probe(
        (Fraction(1, 2), Fraction(1, 2)), (1, 1), 0.5, [50.0, 100.0, 200.0]
    )
    assert counts[1] / counts[0] == pytest.approx(2.0, rel=0.25)
    assert counts[2] / counts[1] == pytest.approx(2.0, rel=0.25)


def test_divergence_probe_below_first_point():
    counts = ld.rational_divergence_probe((Fraction(1, 2), Fraction(1, 2)), (1, 1), 0.5, [0.5])
    assert counts == [0]


def test_divergence_probe_requires_relation():
    with pytest.raises(ld.InvalidInputError):
        ld.rational_divergence_probe((Fraction(1, 3), Fraction(1, 2)), (1, 1), 0.5, [100.0])
    # a float approximation of an irrational has no exact relation either
    with pytest.raises(ld.InvalidInputError):
        ld.rational_divergence_probe(
            (Fraction(CBRT4), Fraction(CBRT2)), (1, 1), 0.5, [100.0]
        )


@pytest.mark.parametrize("xi, r", [
    ((Fraction(1, 2), Fraction(1, 2), Fraction(9)), (1, 1, 4)),
    ((Fraction(1, 2), Fraction(1, 2), Fraction(9)), (1, 1)),
    ((Fraction(1, 2), Fraction(1, 2)), (1, 1, 4)),
    ((Fraction(1, 2),), (1,)),
])
def test_divergence_probe_takes_2_vectors_only(xi, r):
    # a third component is not dropped: it is refused
    with pytest.raises(ld.InvalidInputError, match="2-vectors"):
        ld.rational_divergence_probe(xi, r, 0.5, [10.0])
